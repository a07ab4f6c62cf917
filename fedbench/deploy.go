package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"myriad/internal/catalog"
	"myriad/internal/comm"
	"myriad/internal/core"
	"myriad/internal/dialect"
	"myriad/internal/fedclient"
	"myriad/internal/fedserver"
	"myriad/internal/gateway"
	"myriad/internal/localdb"
	"myriad/internal/schema"
	"myriad/internal/spill"
	"myriad/internal/wal"
)

// siteSpec declares one component site: its schema, its generated rows
// and the export relations its gateway offers.
type siteSpec struct {
	name    string
	dialect string
	ddl     []string
	rows    map[string][]schema.Row // local table -> generated rows
	exports []gateway.Export
	// durable sites are WAL-backed (fsync on every commit, no
	// checkpointer, so WAL bytes per commit are exact).
	durable bool
	// budget bounds the site's blocking-operator memory (0 = none).
	budget int64
}

// fedSpec declares a whole deployment.
type fedSpec struct {
	sites      []siteSpec
	integrated []*catalog.IntegratedDef
	// memBudget is the federation's per-query memory budget (0 = none).
	memBudget int64
	// coordLog arms the always-fsync coordinator log.
	coordLog bool
}

// site is one running component site served by comm.Server over
// loopback TCP.
type site struct {
	name    string
	db      *localdb.DB
	srv     *comm.Server
	srvAddr string
	budget  *spill.Budget
	relay   *relay // traced deployments only
}

// deployment is a running federation: sites, the federation server and
// its address. Clients dial addr with fedclient, as myriadctl would.
type deployment struct {
	dir   string
	sites []*site
	fed   *core.Federation
	srv   *comm.Server
	addr  string
	tr    *tracer // nil when untraced
	execs *execLog
}

// boot starts every site, attaches it to a fresh federation, and serves
// the federation over TCP. With a tracer, each layer boundary is
// wrapped: the gateway handlers, the gateway.Conn handed to AttachSite
// and the fedserver handler.
func boot(dir string, spec fedSpec, tr *tracer) (*deployment, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &deployment{dir: dir, tr: tr, execs: &execLog{}}
	fed := core.New("fedbench")
	fed.Strategy = core.StrategyCostBased
	fed.FanIn = core.FanInAuto
	fed.MemBudget = spec.memBudget
	fed.SpillDir = filepath.Join(dir, "spill")
	if err := os.MkdirAll(fed.SpillDir, 0o755); err != nil {
		return nil, err
	}
	d.fed = fed
	for _, ss := range spec.sites {
		s, err := bootSite(ctx, dir, ss, tr)
		if err != nil {
			d.close()
			return nil, err
		}
		d.sites = append(d.sites, s)
		if err := fed.AttachSite(ctx, d.dialSite(s)); err != nil {
			d.close()
			return nil, fmt.Errorf("attaching %s: %w", s.name, err)
		}
	}
	if spec.coordLog {
		if err := fed.EnableCoordinatorLog(filepath.Join(dir, "coordinator.log"), wal.Options{Sync: wal.SyncAlways}); err != nil {
			d.close()
			return nil, err
		}
		// Compaction off: coordinator bytes per commit stay exact.
		fed.Coordinator().SetCompactBytes(0)
	}
	// myriadd's default detector tick.
	fed.StartDeadlockDetector(time.Second)
	for _, def := range spec.integrated {
		if err := fed.DefineIntegrated(def); err != nil {
			d.close()
			return nil, fmt.Errorf("integrated %s: %w", def.Name, err)
		}
	}
	fs := fedserver.New(fed)
	fs.Logf = d.execs.logf
	var h comm.Handler = fs
	if tr != nil {
		h = tr.wrapFedServer(fs)
	}
	d.srv = comm.NewServer(h)
	addr, err := d.srv.Listen("127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, err
	}
	d.addr = addr
	return d, nil
}

func bootSite(ctx context.Context, dir string, ss siteSpec, tr *tracer) (*site, error) {
	s := &site{name: ss.name}
	if ss.budget > 0 {
		spillDir := filepath.Join(dir, "spill-"+ss.name)
		if err := os.MkdirAll(spillDir, 0o755); err != nil {
			return nil, err
		}
		s.budget = spill.NewBudget(ss.budget, spillDir)
	}
	var err error
	if ss.durable {
		s.db, err = localdb.Open(ss.name, filepath.Join(dir, "site-"+ss.name), localdb.DurabilityOptions{
			Sync: wal.SyncAlways, Budget: s.budget,
		})
		if err != nil {
			return nil, err
		}
	} else {
		s.db = localdb.NewWithBudget(ss.name, s.budget)
	}
	for _, sql := range ss.ddl {
		if _, err := s.db.Exec(ctx, sql); err != nil {
			s.db.Close() //nolint:errcheck
			return nil, fmt.Errorf("site %s: %q: %w", ss.name, sql, err)
		}
	}
	for table, rows := range ss.rows {
		if err := s.db.Load(table, rows); err != nil {
			s.db.Close() //nolint:errcheck
			return nil, fmt.Errorf("site %s: loading %s: %w", ss.name, table, err)
		}
	}
	dl, err := dialect.ForName(ss.dialect)
	if err != nil {
		s.db.Close() //nolint:errcheck
		return nil, err
	}
	gw := gateway.New(ss.name, s.db, dl)
	for _, e := range ss.exports {
		if err := gw.DefineExport(e); err != nil {
			s.db.Close() //nolint:errcheck
			return nil, err
		}
	}
	var h comm.Handler = gw
	if tr != nil {
		h = tr.wrapGateway(ss.name, gw)
	}
	s.srv = comm.NewServer(h)
	addr, err := s.srv.Listen("127.0.0.1:0")
	if err != nil {
		s.db.Close() //nolint:errcheck
		return nil, err
	}
	if tr != nil {
		if s.relay, err = newRelay(addr); err != nil {
			s.srv.Close() //nolint:errcheck
			s.db.Close()  //nolint:errcheck
			return nil, err
		}
	}
	s.srvAddr = addr
	return s, nil
}

// dialSite opens the federation's connection to a site. Traced
// deployments hand AttachSite a wrapped Conn that switches to the
// byte-counting relay while tracing is on.
func (d *deployment) dialSite(s *site) gateway.Conn {
	direct := gateway.DialRemote(s.name, s.srvAddr, 4)
	if d.tr == nil {
		return direct
	}
	return d.tr.wrapConn(direct, gateway.DialRemote(s.name, s.relay.addr(), 4))
}

// client dials the federation server.
func (d *deployment) client() *fedclient.Client { return fedclient.Dial(d.addr, 2) }

// siteNamed returns the running site called name.
func (d *deployment) siteNamed(name string) *site {
	for _, s := range d.sites {
		if s.name == name {
			return s
		}
	}
	return nil
}

// walBytes sums the durable sites' WAL file sizes.
func (d *deployment) walBytes() int64 {
	var n int64
	for _, s := range d.sites {
		n += fileSize(s.db.WALPath())
	}
	return n
}

// coordLogBytes is the coordinator log's file size.
func (d *deployment) coordLogBytes() int64 { return fileSize(d.fed.Coordinator().LogPath()) }

// siteSpill sums the sites' spill budget counters.
func (d *deployment) siteSpill() (bytes, runs int64) {
	for _, s := range d.sites {
		b, r := s.budget.Stats()
		bytes += b
		runs += r
	}
	return bytes, runs
}

// scannedRows sums the sites' heap-scan counters.
func (d *deployment) scannedRows() int64 {
	var n int64
	for _, s := range d.sites {
		n += s.db.ScannedRows()
	}
	return n
}

func fileSize(path string) int64 {
	if path == "" {
		return 0
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// close stops every server and goroutine the deployment started and
// removes its directory.
func (d *deployment) close() {
	d.fed.StopDeadlockDetector()
	if d.srv != nil {
		d.srv.Close() //nolint:errcheck
	}
	for _, name := range d.fed.Sites() {
		if c, ok := d.fed.Conn(name); ok {
			c.Close() //nolint:errcheck
		}
	}
	for _, s := range d.sites {
		s.srv.Close() //nolint:errcheck
		if s.relay != nil {
			s.relay.close()
		}
		s.db.Close() //nolint:errcheck
	}
	d.fed.Coordinator().Close() //nolint:errcheck
	os.RemoveAll(d.dir)         //nolint:errcheck
}

// execLog receives fedserver's per-query executor metrics line (the
// hook myriadd points at its log) and keeps the numbers.
type execLog struct {
	mu      sync.Mutex
	entries []execEntry
}

// execEntry is one streamed global query's executor metrics.
type execEntry struct {
	sql          string
	rowsShipped  int
	spillRuns    int64
	spilledBytes int64
}

// logf matches fedserver.Server.Logf. The arguments are, in order:
// bypass, rows shipped, spill runs, spilled bytes, per-source text, sql.
func (l *execLog) logf(_ string, v ...any) {
	if len(v) < 6 {
		return
	}
	e := execEntry{}
	e.rowsShipped, _ = v[1].(int)
	e.spillRuns, _ = v[2].(int64)
	e.spilledBytes, _ = v[3].(int64)
	e.sql, _ = v[5].(string)
	l.mu.Lock()
	l.entries = append(l.entries, e)
	l.mu.Unlock()
}

// since returns the entries logged after the first n.
func (l *execLog) since(n int) []execEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]execEntry(nil), l.entries[n:]...)
}

func (l *execLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}
