// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON artifact (BENCH_<commit>.json in CI). The artifact
// stays benchstat-compatible: the "raw" field preserves the benchmark
// text lines verbatim, so `jq -r '.raw[]' BENCH_PR5.json | benchstat
// /dev/stdin` (or any tool speaking the Go benchmark format) consumes
// it directly, while "benchmarks" carries the parsed metrics for
// dashboards that prefer structured data.
//
// Usage:
//
//	go test -run='^$' -bench=. -benchtime=1x ./internal/testfed/... | go run ./cmd/benchjson > BENCH_PR5.json
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"` // unit -> value (ns/op, B/op, allocs/op, ...)
}

// Artifact is the emitted document.
type Artifact struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Raw        []string    `json:"raw"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	art := Artifact{Raw: []string{}, Benchmarks: []Benchmark{}}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			art.Goos = strings.TrimPrefix(line, "goos: ")
			art.Raw = append(art.Raw, line)
		case strings.HasPrefix(line, "goarch: "):
			art.Goarch = strings.TrimPrefix(line, "goarch: ")
			art.Raw = append(art.Raw, line)
		case strings.HasPrefix(line, "cpu: "):
			art.CPU = strings.TrimPrefix(line, "cpu: ")
			art.Raw = append(art.Raw, line)
		case strings.HasPrefix(line, "pkg: "):
			art.Raw = append(art.Raw, line)
		case strings.HasPrefix(line, "Benchmark"):
			art.Raw = append(art.Raw, line)
			if b, ok := parseBench(line); ok {
				art.Benchmarks = append(art.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: reading stdin: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&art); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// parseBench parses "BenchmarkX-4  10  123 ns/op  45 B/op  6 allocs/op".
func parseBench(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, len(b.Metrics) > 0
}
