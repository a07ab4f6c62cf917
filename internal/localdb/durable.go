package localdb

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"myriad/internal/lockmgr"
	"myriad/internal/schema"
	"myriad/internal/spill"
	"myriad/internal/storage"
	"myriad/internal/wal"
)

// On-disk layout of a durable database directory:
//
//	snapshot.gob      latest checkpoint (atomic temp+rename write)
//	snapshot.gob.tmp  in-progress checkpoint; stray after a crash, removed at open
//	wal.log           records past the snapshot's LSN
const (
	snapshotFile = "snapshot.gob"
	walFile      = "wal.log"
)

// DurabilityOptions configures a durable (disk-backed) database.
type DurabilityOptions struct {
	// Sync is the WAL fsync policy (see wal.Sync; zero value = SyncAlways).
	Sync wal.Sync
	// SyncInterval is the flush period under wal.SyncInterval (0 = default).
	SyncInterval time.Duration
	// CheckpointBytes triggers a background checkpoint — fresh snapshot,
	// WAL truncated — once the log grows past it. 0 disables the
	// checkpointer (the WAL grows until Checkpoint is called explicitly).
	CheckpointBytes int64
	// Budget bounds blocking-operator memory, as in NewWithBudget.
	Budget *spill.Budget
}

// Open opens (creating if needed) a durable database rooted at dir and
// recovers its state: the latest snapshot is loaded, then every WAL
// record past the snapshot's LSN is replayed. Recovery rebuilds
// secondary indexes — ordered-index walks over the recovered state are
// identical to the pre-crash committed state, including RowID
// tie-breaks — and table statistics are rescanned from the recovered
// rows, with each recovered prepared branch's pending images held in
// them.
func Open(name, dir string, opts DurabilityOptions) (*DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("localdb %s: creating %s: %w", name, dir, err)
	}
	// A crash mid-checkpoint leaves a stray temp snapshot; the real
	// snapshot (if any) is intact because the rename never happened.
	os.Remove(filepath.Join(dir, snapshotFile+".tmp")) //nolint:errcheck

	db := newDB(name, opts.Budget)
	db.dir = dir
	db.ckptBytes = opts.CheckpointBytes
	db.recPrep = make(map[uint64]*wal.Record)

	var snapLSN uint64
	if f, err := os.Open(filepath.Join(dir, snapshotFile)); err == nil {
		snapLSN, err = db.loadSnapshot(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("localdb %s: %w", name, err)
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("localdb %s: opening snapshot: %w", name, err)
	}

	l, err := wal.Open(filepath.Join(dir, walFile),
		wal.Options{Sync: opts.Sync, Interval: opts.SyncInterval},
		func(rec *wal.Record) error {
			// Records at or below the snapshot LSN are already covered by
			// the snapshot (a crash between the checkpoint's rename and its
			// log truncation leaves them behind).
			if rec.LSN <= snapLSN {
				return nil
			}
			return db.applyRecord(rec)
		})
	if err != nil {
		return nil, fmt.Errorf("localdb %s: %w", name, err)
	}
	l.AdvanceLSN(snapLSN)
	db.wal = l
	db.promoteRecovered()
	for _, t := range db.tables {
		db.settleStats(t)
	}

	if opts.CheckpointBytes > 0 {
		db.ckptNotify = make(chan struct{}, 1)
		db.ckptStop = make(chan struct{})
		db.ckptDone = make(chan struct{})
		go db.checkpointLoop()
	}
	return db, nil
}

// Dir returns the durable database's directory ("" for in-memory).
func (db *DB) Dir() string { return db.dir }

// Durable reports whether the database is WAL-backed.
func (db *DB) Durable() bool { return db.wal != nil }

// WALPath returns the database's log file path ("" for in-memory).
func (db *DB) WALPath() string {
	if db.wal == nil {
		return ""
	}
	return filepath.Join(db.dir, walFile)
}

// applyRecord replays one WAL record into the tables map. It runs
// during Open, before the database serves transactions, so no latching
// or locking applies — replay is the sole writer.
func (db *DB) applyRecord(rec *wal.Record) error {
	switch rec.Kind {
	case wal.RecCreateTable:
		sc, err := decodeSchema(rec.Schema)
		if err != nil {
			return err
		}
		t, err := storage.NewTable(sc)
		if err != nil {
			return err
		}
		db.tables[strings.ToLower(rec.Table)] = t
		return nil
	case wal.RecDropTable:
		lc := strings.ToLower(rec.Table)
		if _, ok := db.tables[lc]; !ok {
			return fmt.Errorf("drop of unknown table %s", rec.Table)
		}
		delete(db.tables, lc)
		return nil
	case wal.RecCreateIndex:
		t, err := db.table(rec.Table)
		if err != nil {
			return err
		}
		if rec.Ordered {
			cols := append([]string{rec.Column}, rec.Columns...)
			return t.CreateOrderedIndex(cols...)
		}
		return t.CreateIndex(rec.Column)
	case wal.RecCommit:
		if rec.Branch > db.maxBranch {
			db.maxBranch = rec.Branch
		}
		if rec.Branch != 0 {
			delete(db.recPrep, rec.Branch)
		}
		return db.applyOps(rec.Ops)
	case wal.RecPrepare:
		// A prepared branch's ops do NOT apply at replay — they were never
		// committed. The record is held aside; if no later commit/abort
		// retires it, Open resurrects the branch in the prepared state.
		if rec.Branch > db.maxBranch {
			db.maxBranch = rec.Branch
		}
		db.recPrep[rec.Branch] = rec
		return nil
	case wal.RecAbort:
		if rec.Branch > db.maxBranch {
			db.maxBranch = rec.Branch
		}
		delete(db.recPrep, rec.Branch)
		return nil
	default:
		return fmt.Errorf("unknown record kind %d", rec.Kind)
	}
}

// applyOps applies one redo batch to the tables. Callers are either
// replay (the sole writer during Open) or a recovered branch's Commit
// holding the database latch exclusively.
func (db *DB) applyOps(ops []wal.Op) error {
	for i := range ops {
		op := &ops[i]
		t, err := db.table(op.Table)
		if err != nil {
			return err
		}
		switch op.Kind {
		case wal.OpInsert:
			err = t.ApplyInsert(storage.RowID(op.Row), op.Vals)
		case wal.OpUpdate:
			_, err = t.Update(storage.RowID(op.Row), op.Vals)
		case wal.OpDelete:
			_, err = t.Delete(storage.RowID(op.Row))
		default:
			err = fmt.Errorf("unknown op kind %d", op.Kind)
		}
		if err != nil {
			return fmt.Errorf("op %d on %s: %w", i, op.Table, err)
		}
	}
	return nil
}

// promoteRecovered turns the prepare records that survived replay
// unretired into live prepared transactions: in-doubt branches that
// still hold their logged locks, still reserve the heap slots their
// inserts target, and still block checkpoints until the coordinator's
// decision arrives. It runs at the tail of Open, before the database
// serves transactions.
func (db *DB) promoteRecovered() {
	ids := make([]uint64, 0, len(db.recPrep))
	for id := range db.recPrep {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		rec := db.recPrep[id]
		tx := &Txn{
			db:             db,
			id:             lockmgr.TxnID(id),
			state:          txnPrepared,
			redo:           rec.Ops,
			dirty:          true,
			preparedLogged: true,
			recovered:      true,
			gid:            rec.GID,
		}
		db.dirtyTxns.Add(1)
		db.txns[tx.id] = tx
		if rec.GID != 0 {
			// Keep the branch→global mapping: a live waiter blocked on a
			// recovered prepared branch must show up in the global
			// waits-for graph under the right global id.
			db.lm.SetPriority(tx.id, rec.GID)
		}
		for _, lk := range rec.Locks {
			db.lm.Regrant(tx.id, lk.Resource, lockmgr.Mode(lk.Mode))
		}
		for i := range rec.Ops {
			op := &rec.Ops[i]
			t, err := db.table(op.Table)
			if err != nil {
				continue
			}
			if op.Kind == wal.OpInsert {
				t.ReserveSlots(storage.RowID(op.Row))
			}
			if op.Kind == wal.OpInsert || op.Kind == wal.OpUpdate {
				// The branch's commit will write this image: count it in
				// the statistics now, so they cover the commit outcome.
				tx.hold(t, op.Vals)
			}
		}
	}
	if lockmgr.TxnID(db.maxBranch) > db.nextTxn {
		db.nextTxn = lockmgr.TxnID(db.maxBranch)
	}
	db.recPrep = nil
}

// maybeCheckpoint nudges the background checkpointer when the log has
// outgrown the configured threshold. Non-blocking; safe under any lock.
func (db *DB) maybeCheckpoint() {
	if db.ckptNotify == nil || db.wal.Size() < db.ckptBytes {
		return
	}
	select {
	case db.ckptNotify <- struct{}{}:
	default:
	}
}

// checkpointLoop is the background checkpointer: each nudge from
// maybeCheckpoint snapshots and truncates the log, retrying briefly
// while writer transactions are in flight (Checkpoint defers rather
// than persisting uncommitted rows).
func (db *DB) checkpointLoop() {
	defer close(db.ckptDone)
	for {
		select {
		case <-db.ckptStop:
			db.finalCheckpoint()
			return
		case <-db.ckptNotify:
		}
		for {
			done, err := db.Checkpoint()
			if done || err != nil {
				break // an error leaves the WAL intact; durability is unharmed
			}
			select {
			case <-db.ckptStop:
				db.finalCheckpoint()
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
	}
}

// finalCheckpoint makes one best-effort attempt as the checkpointer
// shuts down, so a clean Close right after heavy writes still honors a
// pending (or in-retry) nudge. After Crash the attempt fails on the
// crashed flag before touching anything — exactly right for kill -9.
func (db *DB) finalCheckpoint() {
	select {
	case <-db.ckptNotify:
	default:
	}
	if db.wal.Size() >= db.ckptBytes {
		db.Checkpoint() //nolint:errcheck
	}
}

// Checkpoint writes a fresh snapshot covering everything logged so far
// and truncates the WAL. It requires a quiescent point: no transaction
// may hold applied-but-uncommitted mutations (their rows are in the
// tables but not in the log, and a snapshot must capture exactly the
// committed state). When writers are in flight it returns (false, nil)
// — deferred — without touching anything.
func (db *DB) Checkpoint() (bool, error) {
	if db.wal == nil {
		return false, fmt.Errorf("localdb %s: not a durable database", db.name)
	}
	db.latch.Lock()
	defer db.latch.Unlock()
	if db.crashed.Load() {
		return false, fmt.Errorf("localdb %s: database has crashed", db.name)
	}
	if db.dirtyTxns.Load() != 0 {
		return false, nil
	}
	// With the latch held exclusively and no dirty transactions, the
	// tables hold exactly the committed state and the WAL describes
	// exactly that state: the snapshot at LastLSN supersedes the log.
	lsn := db.wal.LastLSN()
	if err := db.writeSnapshotFileLocked(filepath.Join(db.dir, snapshotFile), lsn); err != nil {
		return false, err
	}
	if err := db.wal.Reset(); err != nil {
		return false, err
	}
	return true, nil
}

// Close shuts the database down cleanly: the checkpointer stops and the
// WAL is flushed and fsynced, so a subsequent Open loses nothing
// regardless of sync policy. No-op on in-memory databases.
func (db *DB) Close() error {
	if db.wal == nil {
		return nil
	}
	db.stopCheckpointer()
	return db.wal.Close()
}

// Crash simulates kill -9 for the recovery tests: the checkpointer is
// stopped, buffered (unflushed) WAL bytes are DISCARDED, and the
// database stops publishing state — an in-flight checkpoint will not
// complete its rename. Bytes already written to the file survive,
// exactly as they would in the OS page cache of a killed process.
func (db *DB) Crash() {
	if db.wal == nil {
		return
	}
	db.crashed.Store(true)
	db.stopCheckpointer()
	db.wal.CloseNoFlush() //nolint:errcheck
}

// stopCheckpointer signals the background checkpointer and waits for it
// to exit (its in-flight attempt finishes or defers within
// milliseconds; it never blocks on transaction locks).
func (db *DB) stopCheckpointer() {
	if db.ckptStop == nil {
		return
	}
	db.stopOnce.Do(func() { close(db.ckptStop) })
	<-db.ckptDone
}

// StateDigest summarizes the database's logical committed state: table
// schemas, rows in heap-scan order, secondary index definitions, and
// every ordered-index walk (as scan-order row ordinals). Two databases
// with equal digests answer every query identically — same rows, same
// stable scan order, same index walk order — without requiring equal
// physical slot numbers, so a recovered database can be compared
// against an in-memory reference model that never crashed.
func (db *DB) StateDigest() string {
	db.latch.RLock()
	defer db.latch.RUnlock()
	h := sha256.New()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t := db.tables[n]
		fmt.Fprintf(h, "table %s %s\n", n, t.Schema.String())
		// Rows in heap-scan order; ordinal positions stand in for slots so
		// compact and gappy heaps with the same scan order digest equal.
		ord := make(map[storage.RowID]int)
		t.Scan(func(id storage.RowID, r schema.Row) bool {
			ord[id] = len(ord)
			fmt.Fprintf(h, "row %v\n", r)
			return true
		})
		for _, col := range t.Schema.Columns {
			if _, ok := t.Index(col.Name); ok {
				fmt.Fprintf(h, "index %s\n", strings.ToLower(col.Name))
			}
		}
		for _, info := range t.OrderedIndexes() {
			fmt.Fprintf(h, "ordered %s:", strings.ToLower(strings.Join(info.Columns, ",")))
			c := info.Index.CursorTuple(storage.TupleBound{}, storage.TupleBound{}, false)
			for {
				id, ok := c.Next()
				if !ok {
					break
				}
				fmt.Fprintf(h, " %d", ord[id])
			}
			fmt.Fprintf(h, "\n")
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
