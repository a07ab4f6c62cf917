package integration

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"myriad/internal/schema"
	"myriad/internal/spill"
	"myriad/internal/value"
)

// Streaming combiners: the relational integration operators as
// single-pass consumers of per-site row streams. Every source stream is
// pulled by its own feeder goroutine through a bounded batch window, so
// a slow site never stops the federation from consuming the fast ones.
// Three union fan-in operators are provided:
//
//   - FanInSourceOrder (default): rows emit in deterministic source
//     order while later sources prefetch behind their windows. The
//     reference mode — byte-identical to Combine over materialized
//     fragments — used wherever downstream row order must be
//     deterministic.
//   - FanInInterleave: batches emit in completion order across all
//     sources, so first-row latency is bound by the fastest site
//     instead of the first-listed one. Row order is nondeterministic.
//   - FanInMergeOrdered: a stable k-way merge over sources that are
//     each already sorted on MergeKeys; the combined stream is globally
//     sorted without re-sorting, with ties broken by source index (the
//     exact order a stable sort of the source-ordered concatenation
//     would produce).
//
// OUTERJOIN-MERGE is a blocking combinator (it cannot emit an entity
// until every source has had its say); it drains all sources
// concurrently regardless of the requested mode. Its memory is bounded
// by StreamOptions.Budget: each source drains into a spill-backed
// sorter keyed on the integrated key, and entities resolve one at a
// time from a k-way grouped merge — so the combined stream emits in
// integrated-key order and the federation never holds more than the
// budget (plus one entity) however large the sources are.
//
// Backpressure is a per-query rows-in-flight budget rather than a fixed
// per-source credit: StreamOptions.RowBudget caps the integrated rows
// buffered across all of a scan set's source windows, and the per-source
// window shrinks as sources multiply (N sites share the same budget a
// 2-site set gets). The budget is granted in batches of feedBatchRows.
// ByteBudget adds a byte-based bound for wide rows: feeders flush a
// batch early once its observed schema.RowBytes reach the per-batch
// byte cap derived from the budget, so the same batch-count windows
// hold bounded bytes whatever the row width.

// FanInMode selects how multiple source streams combine into one.
type FanInMode uint8

// Fan-in modes.
const (
	// FanInSourceOrder emits every row of source 0, then source 1, ...
	FanInSourceOrder FanInMode = iota
	// FanInInterleave emits batches in completion order.
	FanInInterleave
	// FanInMergeOrdered k-way merges sources pre-sorted on MergeKeys.
	FanInMergeOrdered
)

// String names the mode.
func (m FanInMode) String() string {
	switch m {
	case FanInSourceOrder:
		return "source-order"
	case FanInInterleave:
		return "interleave"
	case FanInMergeOrdered:
		return "merge"
	default:
		return fmt.Sprintf("FanInMode(%d)", uint8(m))
	}
}

// StreamOptions tunes CombineStreamsOpts.
type StreamOptions struct {
	// Mode selects the union fan-in operator. FanInMergeOrdered without
	// MergeKeys degrades to FanInSourceOrder (there is nothing to merge
	// on), so callers can request it optimistically.
	Mode FanInMode
	// MergeKeys is the sort order every source stream is already in
	// (indexes into Spec.Columns), required by FanInMergeOrdered.
	MergeKeys []schema.SortKey
	// RowBudget caps the total rows buffered in flight across all
	// source windows (0 = DefaultRowBudget). Rounded to whole batches;
	// every source always gets at least one batch of window.
	RowBudget int
	// ByteBudget additionally caps the bytes buffered in flight across
	// all source windows (0 = no byte bound): each feeder flushes a
	// batch once its rows' observed schema.RowBytes reach
	// ByteBudget/(sources*window), so wide rows shrink batches instead
	// of blowing the window. A batch always carries at least one row.
	ByteBudget int64
	// Budget, when non-nil, bounds the memory of blocking combination:
	// OUTERJOIN-MERGE spills per-source rows (keyed on the integrated
	// key) through it instead of holding every source row. nil falls
	// back to the MYRIAD_TEST_MEM_BUDGET test hook, else unlimited.
	Budget *spill.Budget
	// OnBatch, when non-nil, is invoked from the feeder goroutine each
	// time one source batch is handed to the fan-in (per-source
	// transfer metrics). It must be safe for concurrent use across
	// sources.
	OnBatch func(source, rows int)
}

const (
	feedBatchRows = 256 // rows per feeder batch
	// DefaultRowBudget is the rows-in-flight cap when the caller does
	// not set one: 16 batches, i.e. the old fixed 4-batch window at the
	// 4-source point, deeper for fewer sources, shallower for more.
	DefaultRowBudget = 16 * feedBatchRows
	// maxWindowBatches bounds the per-source window however large the
	// budget is (prefetch past this buys nothing but memory).
	maxWindowBatches = 16
)

// windowBatches derives the per-source window (in batches) from the
// query's rows-in-flight budget.
func windowBatches(sources, rowBudget int) int {
	if rowBudget <= 0 {
		rowBudget = DefaultRowBudget
	}
	if sources < 1 {
		sources = 1
	}
	w := rowBudget / (sources * feedBatchRows)
	if w < 1 {
		w = 1
	}
	if w > maxWindowBatches {
		w = maxWindowBatches
	}
	return w
}

// perBatchBytes derives the byte cap one feeder batch may hold from
// the query's bytes-in-flight budget: with W window batches per source
// the windows hold at most sources*W*cap ≈ ByteBudget bytes, so the
// row-count windows bound bytes too once observed row sizes feed back.
// 0 = no byte bound.
func perBatchBytes(sources int, opts StreamOptions) int64 {
	if opts.ByteBudget <= 0 {
		return 0
	}
	if sources < 1 {
		sources = 1
	}
	per := opts.ByteBudget / int64(sources*windowBatches(sources, opts.RowBudget))
	if per < 1 {
		per = 1
	}
	return per
}

// CombineStreams merges per-source row streams into a stream of
// integrated rows in deterministic source order (the default options).
// It takes ownership of the sources: closing the returned stream
// cancels the feeders, closes every source (tearing down remote scans
// mid-flight), and must be called even after an error. ctx bounds all
// pulls; cancelling it aborts every feeder.
func CombineStreams(ctx context.Context, spec *Spec, sources []schema.RowStream) schema.RowStream {
	return CombineStreamsOpts(ctx, spec, sources, StreamOptions{})
}

// CombineStreamsOpts is CombineStreams with an explicit fan-in mode and
// backpressure budget.
func CombineStreamsOpts(ctx context.Context, spec *Spec, sources []schema.RowStream, opts StreamOptions) schema.RowStream {
	fctx, cancel := context.WithCancel(ctx)
	mode := opts.Mode
	if mode == FanInMergeOrdered && len(opts.MergeKeys) == 0 {
		mode = FanInSourceOrder
	}
	switch spec.Kind {
	case UnionAll, UnionDistinct:
		distinct := spec.Kind == UnionDistinct
		budget := opts.Budget
		if budget == nil {
			budget = spill.EnvBudget()
		}
		switch mode {
		case FanInInterleave:
			var seen *dedupState
			if distinct {
				seen = newDedupState(budget)
			}
			c := &interleaveStream{seen: seen}
			c.init(spec, sources, fctx, cancel)
			cap := windowBatches(len(sources), opts.RowBudget) * len(sources)
			if cap < len(sources) {
				cap = len(sources)
			}
			c.ch = make(chan feedItem, cap)
			maxBytes := perBatchBytes(len(sources), opts)
			for i, src := range sources {
				startSharedFeed(fctx, &c.wg, c.ch, src, spec, i, maxBytes, opts.OnBatch)
			}
			c.closerDone = make(chan struct{})
			go func() {
				defer close(c.closerDone)
				c.wg.Wait()
				close(c.ch)
			}()
			return c
		case FanInMergeOrdered:
			c := &mergeStream{keys: opts.MergeKeys, dedup: distinct, budget: budget}
			c.init(spec, sources, fctx, cancel)
			c.feeds = startFeeds(fctx, &c.wg, sources, spec, opts)
			c.heads = make([]schema.Row, len(sources))
			c.done = make([]bool, len(sources))
			c.batches = make([][]schema.Row, len(sources))
			c.bpos = make([]int, len(sources))
			return c
		default:
			var seen *dedupState
			if distinct {
				seen = newDedupState(budget)
			}
			c := &combinedStream{seen: seen}
			c.init(spec, sources, fctx, cancel)
			c.feeds = startFeeds(fctx, &c.wg, sources, spec, opts)
			return c
		}
	case MergeOuter:
		// Blocking combinator: first Next drains all sources in
		// parallel into spill-backed key-sorted stores, then streams
		// the grouped merge. No feeders needed; the mode is moot.
		budget := opts.Budget
		if budget == nil {
			budget = spill.EnvBudget()
		}
		c := &combinedStream{onBatch: opts.OnBatch, budget: budget}
		c.init(spec, sources, fctx, cancel)
		return c
	default:
		c := &combinedStream{}
		c.init(spec, sources, fctx, cancel)
		c.err = fmt.Errorf("integration: unknown combinator %d", spec.Kind)
		return c
	}
}

// fanInBase carries the state every fan-in operator shares: the spec,
// source ownership, the feed context, and first-error bookkeeping.
type fanInBase struct {
	spec    *Spec
	sources []schema.RowStream
	fctx    context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	err    error
	closed bool
}

// init wires the shared fields in place (fanInBase holds a WaitGroup,
// so it must never be copied as a value).
func (b *fanInBase) init(spec *Spec, sources []schema.RowStream, fctx context.Context, cancel context.CancelFunc) {
	b.spec = spec
	b.sources = sources
	b.fctx = fctx
	b.cancel = cancel
}

func (b *fanInBase) Columns() []string { return b.spec.Columns }

// fail records the first error and aborts the other feeders so their
// sites stop shipping rows that will never be consumed.
func (b *fanInBase) fail(err error) {
	if b.err == nil {
		b.err = err
	}
	b.cancel()
}

// closeBase cancels the feeders, waits for them to exit, and closes
// every source stream — the half-close that propagates early
// termination (a satisfied LIMIT, an error at a sibling site, a
// cancelled query) down to each site's scan. Idempotent.
func (b *fanInBase) closeBase() error {
	if b.closed {
		return nil
	}
	b.closed = true
	// Cancelling unblocks feeders parked on a full window or a pending
	// pull; wait them out so no goroutine touches a source while we
	// close it.
	b.cancel()
	b.wg.Wait()
	var first error
	for _, src := range b.sources {
		if err := src.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// dedupState is the UNION-distinct first-occurrence-wins filter shared
// by the source-order and interleave fan-ins: a spill.Deduper keyed on
// the encoded row. While the key set fits the query's memory budget
// rows stream through immediately; past it the deduper spills to
// sort-based dedup and the deferred first occurrences drain — still in
// arrival order — from tailNext once every source is exhausted, so the
// fan-in never fails on dedup volume and never holds more than the
// budget plus one key group.
type dedupState struct {
	d    *spill.Deduper
	tail *spill.Iterator
}

func newDedupState(budget *spill.Budget) *dedupState {
	return &dedupState{d: spill.NewDeduper(budget, "UNION dedup")}
}

// admit reports whether the row is a first occurrence to emit now;
// false also covers rows deferred to the tail after a spill.
func (d *dedupState) admit(r schema.Row) (bool, error) {
	return d.d.Admit(encodeRow(r), r)
}

// tailNext streams the deferred first occurrences after the inputs are
// exhausted; nil means nothing (more) was deferred.
func (d *dedupState) tailNext(ctx context.Context) (schema.Row, error) {
	if d.tail == nil {
		if !d.d.Spilled() {
			return nil, nil
		}
		t, err := d.d.Tail(ctx)
		if err != nil {
			return nil, err
		}
		d.tail = t
	}
	rec, err := d.tail.Next(ctx)
	if err != nil || rec == nil {
		return nil, err
	}
	return spill.TailRow(rec), nil
}

// close releases the dedup reservation and removes any spill state.
func (d *dedupState) close() {
	if d == nil {
		return
	}
	if d.tail != nil {
		d.tail.Close()
		d.tail = nil
	}
	d.d.Close()
}

// sourceFeed is one producer goroutine's output: batches flow through a
// bounded channel (the backpressure window); the final item carries the
// source's terminal error, if any.
type sourceFeed struct {
	ch chan feedItem
}

type feedItem struct {
	src  int
	rows []schema.Row
	err  error
}

// startFeeds launches one windowed feeder per source.
func startFeeds(ctx context.Context, wg *sync.WaitGroup, sources []schema.RowStream, spec *Spec, opts StreamOptions) []*sourceFeed {
	window := windowBatches(len(sources), opts.RowBudget)
	maxBytes := perBatchBytes(len(sources), opts)
	feeds := make([]*sourceFeed, len(sources))
	for i, src := range sources {
		f := &sourceFeed{ch: make(chan feedItem, window)}
		feeds[i] = f
		wg.Add(1)
		go func(i int, src schema.RowStream) {
			defer wg.Done()
			defer close(f.ch)
			feedLoop(ctx, src, spec, i, opts.OnBatch, maxBytes, func(it feedItem) bool {
				select {
				case f.ch <- it:
					return true
				case <-ctx.Done():
					return false
				}
			})
		}(i, src)
	}
	return feeds
}

// startSharedFeed launches a feeder that sends into the interleave
// operator's shared channel (never closing it; the operator's closer
// does once every feeder has exited).
func startSharedFeed(ctx context.Context, wg *sync.WaitGroup, ch chan feedItem, src schema.RowStream, spec *Spec, idx int, maxBytes int64, onBatch func(int, int)) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		feedLoop(ctx, src, spec, idx, onBatch, maxBytes, func(it feedItem) bool {
			select {
			case ch <- it:
				return true
			case <-ctx.Done():
				return false
			}
		})
	}()
}

// feedLoop pulls src in batches until EOF, error or cancellation,
// handing each batch to send. A batch flushes at feedBatchRows rows
// or, under a byte budget, as soon as its accumulated row bytes reach
// maxBytes (0 = no byte bound) — wide rows shrink batches so the
// batch-count windows stay byte-bounded. The feeder owns only the
// pulling; closing src stays with the operator's Close (after the
// feeder has exited).
func feedLoop(ctx context.Context, src schema.RowStream, spec *Spec, idx int, onBatch func(int, int), maxBytes int64, send func(feedItem) bool) {
	if err := checkArityCols(spec, src.Columns()); err != nil {
		send(feedItem{src: idx, err: err})
		return
	}
	batch := make([]schema.Row, 0, feedBatchRows)
	var batchBytes int64
	flush := func() bool {
		if len(batch) == 0 {
			return true
		}
		n := len(batch)
		if !send(feedItem{src: idx, rows: batch}) {
			return false
		}
		if onBatch != nil {
			onBatch(idx, n)
		}
		batch = make([]schema.Row, 0, feedBatchRows)
		batchBytes = 0
		return true
	}
	for {
		r, err := src.Next(ctx)
		if err != nil {
			send(feedItem{src: idx, err: err})
			return
		}
		if r == nil {
			flush()
			return
		}
		batch = append(batch, r)
		if maxBytes > 0 {
			batchBytes += schema.RowBytes(r)
		}
		if len(batch) == feedBatchRows || (maxBytes > 0 && batchBytes >= maxBytes) {
			if !flush() {
				return
			}
		}
	}
}

func checkArityCols(spec *Spec, cols []string) error {
	if len(cols) != len(spec.Columns) {
		return fmt.Errorf("integration: source has %d columns, integrated relation has %d", len(cols), len(spec.Columns))
	}
	return nil
}

// ---------------------------------------------------------------------
// Source-order union and OUTERJOIN-MERGE

// combinedStream is the source-ordered fan-in (and the blocking
// OUTERJOIN-MERGE host).
type combinedStream struct {
	fanInBase

	// Union paths.
	feeds []*sourceFeed
	cur   int // index of the source currently being emitted
	batch []schema.Row
	bpos  int
	seen  *dedupState // UnionDistinct dedup, first occurrence wins

	// MergeOuter path: per-source key-sorted spill stores and the
	// grouped-merge cursor state over them.
	onBatch   func(source, rows int)
	budget    *spill.Budget
	sorters   []*spill.Sorter
	mits      []*spill.Iterator
	mheads    []schema.Row
	mcmp      func(a, b schema.Row) int
	isKey     map[int]bool
	coalesce  Func
	mergeDone bool
}

// mergeKeyCompare orders rows by their key columns under a total,
// transitive order that clusters identical encoded keys: per column,
// kind first, then schema.CompareSort within the kind. Comparing
// across kinds through CompareSort would be non-transitive (text
// compares lexicographically against text but numerically against
// numbers, so {'9', 10, '10'} is a cycle) and an unspecified sort
// order would let the grouped merge split one entity in two;
// separating kinds first keeps each column's order transitive, and
// compare-equal then means identical kind and value — exactly the
// materialized combinator's encodeRow identity. For the typical
// homogeneous-kind key this is pure CompareSort order.
func mergeKeyCompare(keyCols []int) func(a, b schema.Row) int {
	return func(a, b schema.Row) int {
		for _, kc := range keyCols {
			av, bv := a[kc], b[kc]
			if av.K != bv.K {
				return int(av.K) - int(bv.K)
			}
			if c := schema.CompareSort(av, bv); c != 0 {
				return c
			}
		}
		return 0
	}
}

func (c *combinedStream) Next(ctx context.Context) (schema.Row, error) {
	if c.err != nil {
		return nil, c.err
	}
	if c.closed {
		return nil, nil
	}
	if c.spec.Kind == MergeOuter {
		return c.nextMerged(ctx)
	}
	for {
		for c.bpos >= len(c.batch) {
			if c.cur >= len(c.feeds) {
				// Every source is exhausted; drain any dedup tail (first
				// occurrences deferred after a spill, in arrival order).
				if c.seen == nil {
					return nil, nil
				}
				r, err := c.seen.tailNext(ctx)
				if err != nil {
					c.fail(err)
					return nil, c.err
				}
				return r, nil
			}
			var item feedItem
			var ok bool
			select {
			case item, ok = <-c.feeds[c.cur].ch:
			case <-ctx.Done():
				// Honor the per-call context like every other RowStream,
				// even when it is not the context the feeders watch.
				c.fail(ctx.Err())
				return nil, c.err
			}
			if !ok {
				// A feeder racing a cancellation may drop its terminal
				// error item (its send selects against fctx.Done); a
				// closed channel under a dead feed context is an abort,
				// never clean exhaustion — truncation must not read as
				// success.
				if err := c.fctx.Err(); err != nil {
					c.fail(err)
					return nil, c.err
				}
				c.cur++ // source exhausted; move on in source order
				continue
			}
			if item.err != nil {
				c.fail(item.err)
				return nil, c.err
			}
			c.batch, c.bpos = item.rows, 0
		}
		r := c.batch[c.bpos]
		c.bpos++
		if c.seen != nil {
			first, err := c.seen.admit(r)
			if err != nil {
				c.fail(err)
				return nil, c.err
			}
			if !first {
				continue
			}
		}
		return r, nil
	}
}

// nextMerged lazily drains every source in parallel into a per-source
// spill-backed sorter keyed on the integrated key (NULL-key rows are
// dropped, as in the materialized combinator), then streams a k-way
// grouped merge: for each distinct key, every source's contributions
// are folded (first non-NULL per column in source row order — the
// stable sorters preserve arrival order within equal keys) and the
// entity resolves through the integration functions. Exactly one
// entity is in memory at a time, so the combiner's footprint is the
// spill budget, not the source volume; entities emit in integrated-key
// order (the materialized Combine path keeps first-occurrence order).
// The drains pull through fctx so a failing source aborts its
// siblings; each Next honors the per-call ctx between spill reads, so
// a cancelled query stops promptly even mid-merge.
func (c *combinedStream) nextMerged(ctx context.Context) (schema.Row, error) {
	if err := ctx.Err(); err != nil {
		c.fail(err)
		return nil, c.err
	}
	if !c.mergeDone {
		if err := c.drainMergeSources(); err != nil {
			c.fail(err)
			return nil, c.err
		}
		c.mergeDone = true
	}
	return c.nextEntity(ctx)
}

// drainMergeSources concurrently pulls every source dry into its
// key-sorted store (ordered by mergeKeyCompare, so rows of one entity
// are contiguous in every source and meet at consistent merge
// positions) and opens the merge cursors.
func (c *combinedStream) drainMergeSources() error {
	if len(c.spec.KeyCols) == 0 {
		return fmt.Errorf("integration: OUTERJOIN-MERGE requires a key")
	}
	c.mcmp = mergeKeyCompare(c.spec.KeyCols)
	c.isKey = make(map[int]bool, len(c.spec.KeyCols))
	for _, kc := range c.spec.KeyCols {
		c.isKey[kc] = true
	}
	c.coalesce, _ = Lookup("coalesce")

	c.sorters = make([]*spill.Sorter, len(c.sources))
	for i := range c.sorters {
		c.sorters[i] = spill.NewSorterFunc(c.budget, c.mcmp)
	}
	errs := make([]error, len(c.sources))
	var wg sync.WaitGroup
	for i, src := range c.sources {
		wg.Add(1)
		// Register on the operator WaitGroup too, so closeBase's "wait
		// the goroutines out before touching sources" invariant also
		// covers a Close racing the draining Next: the sweep of
		// sorters and sources waits for the drains to exit.
		c.wg.Add(1)
		go func(i int, src schema.RowStream) {
			defer wg.Done()
			defer c.wg.Done()
			if err := checkArityCols(c.spec, src.Columns()); err != nil {
				errs[i] = err
				c.cancel()
				return
			}
			n := 0
			for {
				r, err := src.Next(c.fctx)
				if err != nil {
					errs[i] = err
					c.cancel()
					return
				}
				if r == nil {
					break
				}
				n++
				nullKey := false
				for _, kc := range c.spec.KeyCols {
					if r[kc].IsNull() {
						nullKey = true
						break
					}
				}
				if nullKey {
					continue
				}
				if err := c.sorters[i].Add(r); err != nil {
					errs[i] = err
					c.cancel()
					return
				}
			}
			if c.onBatch != nil && n > 0 {
				// The whole fragment is one block handoff.
				c.onBatch(i, n)
			}
		}(i, src)
	}
	wg.Wait()
	// Prefer the root cause over a sibling's collateral cancellation.
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if first == nil {
			first = err
		}
		if !errors.Is(err, context.Canceled) {
			first = err
			break
		}
	}
	if first != nil {
		return first
	}
	c.mits = make([]*spill.Iterator, len(c.sorters))
	c.mheads = make([]schema.Row, len(c.sorters))
	for i, s := range c.sorters {
		it, err := s.Finish()
		if err != nil {
			return err
		}
		c.mits[i] = it
	}
	ctx := c.fctx
	for i := range c.mits {
		h, err := c.mits[i].Next(ctx)
		if err != nil {
			return err
		}
		c.mheads[i] = h
	}
	return nil
}

// nextEntity resolves and emits the entity with the smallest pending
// integrated key across the source cursors. Rows belong to the same
// entity exactly when mergeKeyCompare reports them equal — kind-exact,
// matching mergeOuter's encoded map key.
func (c *combinedStream) nextEntity(ctx context.Context) (schema.Row, error) {
	best := -1
	for i, h := range c.mheads {
		if h == nil {
			continue
		}
		if best < 0 || c.mcmp(h, c.mheads[best]) < 0 {
			best = i
		}
	}
	if best < 0 {
		return nil, nil
	}
	key := c.mheads[best]
	vals := make([][]value.Value, len(c.spec.Columns))
	for col := range vals {
		vals[col] = make([]value.Value, len(c.mheads))
	}
	for si := range c.mheads {
		for c.mheads[si] != nil && c.mcmp(c.mheads[si], key) == 0 {
			row := c.mheads[si]
			for col := range c.spec.Columns {
				if !c.isKey[col] && vals[col][si].IsNull() {
					vals[col][si] = row[col]
				}
			}
			h, err := c.mits[si].Next(ctx)
			if err != nil {
				c.fail(err)
				return nil, c.err
			}
			c.mheads[si] = h
		}
	}
	out := make(schema.Row, len(c.spec.Columns))
	for col := range c.spec.Columns {
		if c.isKey[col] {
			out[col] = key[col]
			continue
		}
		fn := c.spec.Resolvers[col]
		if fn == nil {
			fn = c.coalesce
		}
		v, err := fn(vals[col])
		if err != nil {
			c.fail(fmt.Errorf("integration: column %s: %w", c.spec.Columns[col], err))
			return nil, c.err
		}
		out[col] = v
	}
	return out, nil
}

// Close tears down the feeders and sources, and removes any spill runs
// the outer-merge stores hold. Idempotent.
func (c *combinedStream) Close() error {
	err := c.closeBase()
	c.seen.close()
	for _, it := range c.mits {
		if it != nil {
			it.Close()
		}
	}
	for _, s := range c.sorters {
		if s != nil {
			s.Close()
		}
	}
	c.mits, c.sorters, c.mheads = nil, nil, nil
	return err
}

// ---------------------------------------------------------------------
// Unordered interleave

// interleaveStream emits batches in completion order: every feeder
// sends into one shared channel whose capacity is the query's whole
// rows-in-flight budget, so a stalled site consumes none of it while
// the fast sites' batches flow straight through. First-row latency is
// bound by the fastest source.
type interleaveStream struct {
	fanInBase

	ch         chan feedItem
	closerDone chan struct{}
	batch      []schema.Row
	bpos       int
	seen       *dedupState
}

func (c *interleaveStream) Next(ctx context.Context) (schema.Row, error) {
	if c.err != nil {
		return nil, c.err
	}
	if c.closed {
		return nil, nil
	}
	for {
		for c.bpos >= len(c.batch) {
			var item feedItem
			var ok bool
			select {
			case item, ok = <-c.ch:
			case <-ctx.Done():
				c.fail(ctx.Err())
				return nil, c.err
			}
			if !ok {
				// All feeders exited. Same truncation guard as the
				// source-ordered path: a close under a dead feed context
				// is an abort, not exhaustion.
				if err := c.fctx.Err(); err != nil {
					c.fail(err)
					return nil, c.err
				}
				if c.seen == nil {
					return nil, nil
				}
				r, err := c.seen.tailNext(ctx)
				if err != nil {
					c.fail(err)
					return nil, c.err
				}
				return r, nil
			}
			if item.err != nil {
				c.fail(item.err)
				return nil, c.err
			}
			c.batch, c.bpos = item.rows, 0
		}
		r := c.batch[c.bpos]
		c.bpos++
		if c.seen != nil {
			first, err := c.seen.admit(r)
			if err != nil {
				c.fail(err)
				return nil, c.err
			}
			if !first {
				continue
			}
		}
		return r, nil
	}
}

func (c *interleaveStream) Close() error {
	err := c.closeBase()
	c.seen.close()
	// closeBase waited the feeders out; the closer goroutine only has
	// the channel close left. Wait so Close leaves no goroutine behind.
	<-c.closerDone
	return err
}

// ---------------------------------------------------------------------
// Ordered k-way merge

// mergeStream interleaves sources that are each already sorted on keys
// into one globally sorted stream. Ties break toward the lower source
// index and rows within a source stay FIFO, so the output is exactly
// what a stable sort of the source-ordered concatenation would produce
// — which is what lets the executor substitute a merge for the scratch
// engine's ORDER BY without changing a single row. The merge must hold
// one row per source, so its first row waits for the slowest site; it
// trades first-row latency for never re-sorting.
type mergeStream struct {
	fanInBase

	keys    []schema.SortKey
	feeds   []*sourceFeed
	heads   []schema.Row
	done    []bool
	batches [][]schema.Row
	bpos    []int
	inited  bool

	// UNION-distinct over a merged-ordered stream must stay streaming —
	// the executor substitutes this merge for a downstream ORDER BY, so
	// rows cannot be deferred to a tail. Instead dedup is scoped to one
	// merge-key run at a time: equal full rows necessarily carry equal
	// merge keys, so duplicates are confined to a run, and the set resets
	// whenever the key advances — memory is one key group, not the
	// stream.
	dedup     bool
	budget    *spill.Budget
	groupSeen *spill.DedupSet
	groupKey  schema.Row
}

// advance loads the next row of source i into heads[i] (nil + done when
// the source is exhausted), pulling a fresh batch from its feed when
// the buffered one runs dry.
func (c *mergeStream) advance(ctx context.Context, i int) error {
	for {
		if c.bpos[i] < len(c.batches[i]) {
			c.heads[i] = c.batches[i][c.bpos[i]]
			c.bpos[i]++
			return nil
		}
		if c.done[i] {
			c.heads[i] = nil
			return nil
		}
		var item feedItem
		var ok bool
		select {
		case item, ok = <-c.feeds[i].ch:
		case <-ctx.Done():
			return ctx.Err()
		}
		if !ok {
			if err := c.fctx.Err(); err != nil {
				return err
			}
			c.done[i] = true
			c.heads[i] = nil
			c.batches[i] = nil
			return nil
		}
		if item.err != nil {
			return item.err
		}
		c.batches[i], c.bpos[i] = item.rows, 0
	}
}

func (c *mergeStream) Next(ctx context.Context) (schema.Row, error) {
	if c.err != nil {
		return nil, c.err
	}
	if c.closed {
		return nil, nil
	}
	if !c.inited {
		for i := range c.feeds {
			if err := c.advance(ctx, i); err != nil {
				c.fail(err)
				return nil, c.err
			}
		}
		c.inited = true
	}
	for {
		// Site counts are small; a linear min scan beats heap upkeep.
		// Strict < keeps the earliest source on ties (stability).
		best := -1
		for i, h := range c.heads {
			if h == nil {
				continue
			}
			if best < 0 || schema.CompareRowsBy(h, c.heads[best], c.keys) < 0 {
				best = i
			}
		}
		if best < 0 {
			return nil, nil
		}
		r := c.heads[best]
		if err := c.advance(ctx, best); err != nil {
			c.fail(err)
			return nil, c.err
		}
		if c.dedup {
			if c.groupKey == nil || schema.CompareRowsBy(r, c.groupKey, c.keys) != 0 {
				c.groupSeen = spill.NewDedupSet(c.budget, "UNION dedup (one merge-key group)")
				c.groupKey = r
			}
			first, err := c.groupSeen.Admit(encodeRow(r))
			if err != nil {
				c.fail(err)
				return nil, c.err
			}
			if !first {
				continue
			}
		}
		return r, nil
	}
}

func (c *mergeStream) Close() error { return c.closeBase() }
