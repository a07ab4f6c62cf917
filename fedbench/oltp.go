package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"myriad/internal/catalog"
	"myriad/internal/fedclient"
	"myriad/internal/gateway"
	"myriad/internal/integration"
	"myriad/internal/schema"
	"myriad/internal/value"
)

// oltp is the banking mix: each session is a two-site 2PC transfer
// through fedclient followed at once by a read-back of the debited
// balance through the integrated ACCOUNTS relation. Each client owns a
// disjoint range of accounts it debits; every transfer credits the
// credit branch's hot account, which no client owns, so concurrent
// transfers meet on its lock.
type oltp struct {
	branches, perBranch int
	balances            [][]int64 // [branch][offset], offset 0 = hot account
	total               int64
	nclients            int
	// expected balances of each client's debited accounts; unknown
	// marks accounts whose last transfer failed (resynced on read).
	expected []map[int64]int64
	unknown  []map[int64]bool
}

const (
	oltpBranches     = 4
	oltpAccounts     = 20000 // per branch
	oltpMaxAttempts  = 8
	oltpWarmSessions = 10 // per client
)

func newOLTP(seed int64, clients int) *oltp {
	rng := rand.New(rand.NewSource(seed))
	o := &oltp{branches: oltpBranches, perBranch: oltpAccounts, nclients: clients}
	for b := 0; b < o.branches; b++ {
		bal := make([]int64, o.perBranch)
		for i := range bal {
			bal[i] = 1000 + rng.Int63n(9000)
			o.total += bal[i]
		}
		o.balances = append(o.balances, bal)
	}
	for c := 0; c < clients; c++ {
		o.expected = append(o.expected, map[int64]int64{})
		o.unknown = append(o.unknown, map[int64]bool{})
	}
	return o
}

func branchName(b int) string { return fmt.Sprintf("branch%d", b) }

func (o *oltp) acct(branch, off int) int64 { return int64(branch*o.perBranch + off) }

func (o *oltp) spec() fedSpec {
	var sources []catalog.SourceDef
	var sites []siteSpec
	for b := 0; b < o.branches; b++ {
		rows := make([]schema.Row, o.perBranch)
		for off, bal := range o.balances[b] {
			a := o.acct(b, off)
			rows[off] = schema.Row{value.NewInt(a), value.NewText(fmt.Sprintf("owner-%d", a)), value.NewInt(bal)}
		}
		name := branchName(b)
		sites = append(sites, siteSpec{
			name: name, dialect: dialectFor(b), durable: true,
			ddl:     []string{`CREATE TABLE accounts (acct INTEGER PRIMARY KEY, owner TEXT NOT NULL, balance INTEGER NOT NULL)`},
			rows:    map[string][]schema.Row{"accounts": rows},
			exports: []gateway.Export{{Name: "ACCOUNT", LocalTable: "accounts"}},
		})
		sources = append(sources, catalog.SourceDef{
			Site: name, Export: "ACCOUNT",
			ColumnMap: map[string]string{"acct": "acct", "owner": "owner", "balance": "balance", "branch": "'" + name + "'"},
		})
	}
	return fedSpec{
		sites:    sites,
		coordLog: true,
		integrated: []*catalog.IntegratedDef{{
			Name: "ACCOUNTS",
			Columns: []schema.Column{
				{Name: "acct", Type: schema.TInt}, {Name: "owner", Type: schema.TText},
				{Name: "balance", Type: schema.TInt}, {Name: "branch", Type: schema.TText},
			},
			Key: []string{"acct"}, Combine: integration.UnionAll, Sources: sources,
		}},
	}
}

func (o *oltp) clients() int { return o.nclients }

func (o *oltp) warmSessions() int { return oltpWarmSessions }

// owned draws an account offset from client c's range (offsets
// 1..perBranch-1 split evenly; offset 0 is the hot account).
func (o *oltp) owned(c *client) int {
	span := (o.perBranch - 1) / o.nclients
	return 1 + c.idx*span + c.rng.Intn(span)
}

func (o *oltp) balance(c *client, a int64) int64 {
	if v, ok := o.expected[c.idx][a]; ok {
		return v
	}
	return o.balances[int(a)/o.perBranch][int(a)%o.perBranch]
}

// retryable reports whether a failed transfer was rolled back by the
// deadlock machinery (wound, presumed-deadlock timeout, failed prepare)
// and may be retried.
func retryable(err error) bool {
	return errors.Is(err, fedclient.ErrWounded) || errors.Is(err, fedclient.ErrDeadlockAbort) ||
		strings.Contains(err.Error(), "failed to prepare")
}

func (o *oltp) session(ctx context.Context, c *client) {
	i := c.rng.Intn(o.branches)
	j := (i + 1 + c.rng.Intn(o.branches-1)) % o.branches
	debit, credit := o.acct(i, o.owned(c)), o.acct(j, 0)
	amt := int64(1 + c.rng.Intn(50))
	debitSQL := fmt.Sprintf("UPDATE ACCOUNT SET balance = balance - %d WHERE acct = %d", amt, debit)
	creditSQL := fmt.Sprintf("UPDATE ACCOUNT SET balance = balance + %d WHERE acct = %d", amt, credit)

	err := c.do("transfer", func() (int64, error) {
		for attempt := 1; ; attempt++ {
			err := o.transfer(ctx, c, branchName(i), debitSQL, branchName(j), creditSQL)
			if err == nil || !retryable(err) || attempt == oltpMaxAttempts {
				return 0, err
			}
			c.rec.mu.Lock()
			c.rec.retries++
			c.rec.mu.Unlock()
			time.Sleep(time.Duration(attempt) * 2 * time.Millisecond)
		}
	})
	exp, unk := o.expected[c.idx], o.unknown[c.idx]
	if err == nil {
		exp[debit] = o.balance(c, debit) - amt
	} else {
		unk[debit] = true
	}

	sql := fmt.Sprintf("SELECT balance FROM ACCOUNTS WHERE acct = %d", debit)
	c.do("readback", func() (int64, error) {
		rs, err := c.query(ctx, sql)
		if err != nil {
			return 0, err
		}
		if len(rs.Rows) != 1 {
			return 0, wrong("read-back of %d: %d rows", debit, len(rs.Rows))
		}
		got, _ := rs.Rows[0][0].Int()
		if unk[debit] {
			exp[debit] = got
			delete(unk, debit)
			return 1, nil
		}
		if want := o.balance(c, debit); got != want {
			return 0, wrong("read-back of %d = %d, want %d", debit, got, want)
		}
		return 1, nil
	})
}

// transfer runs one global transaction: Begin, debit and credit
// ExecSite UPDATEs at two sites, Commit.
func (o *oltp) transfer(ctx context.Context, c *client, debitSite, debitSQL, creditSite, creditSQL string) error {
	txn, err := c.begin(ctx)
	if err != nil {
		return err
	}
	for _, st := range [][2]string{{debitSite, debitSQL}, {creditSite, creditSQL}} {
		n, err := c.exec(ctx, txn, st[0], st[1])
		if err == nil && n != 1 {
			err = wrong("%s affected %d rows", st[1], n)
		}
		if err != nil {
			c.abort(ctx, txn)
			return err
		}
	}
	return c.commit(ctx, txn)
}

func (o *oltp) probes(c *client) []probe {
	a := o.acct(c.rng.Intn(o.branches), o.owned(c))
	return []probe{{"readback", fmt.Sprintf("SELECT balance FROM ACCOUNTS WHERE acct = %d", a)}}
}

// check verifies conservation of money, read directly at the sites,
// and the coordinator's bookkeeping.
func (o *oltp) check(ctx context.Context, d *deployment) []string {
	var bad []string
	var sum int64
	for b := 0; b < o.branches; b++ {
		rs, err := d.siteNamed(branchName(b)).db.Query(ctx, "SELECT SUM(balance) FROM accounts")
		if err != nil || len(rs.Rows) != 1 {
			bad = append(bad, fmt.Sprintf("summing %s: %v", branchName(b), err))
			continue
		}
		v, _ := rs.Rows[0][0].Int()
		sum += v
	}
	if sum != o.total {
		bad = append(bad, fmt.Sprintf("total balance %d, want %d", sum, o.total))
	}
	st := &d.fed.Coordinator().Stats
	begun, committed, aborted, inDoubt := st.Begun.Load(), st.Committed.Load(), st.Aborted.Load(), st.InDoubt.Load()
	if begun != committed+aborted+inDoubt || inDoubt != 0 {
		bad = append(bad, fmt.Sprintf("gtm begun=%d committed=%d aborted=%d in_doubt=%d", begun, committed, aborted, inDoubt))
	}
	return bad
}

// dialectFor alternates Oracle-like and Postgres-like sites, so every
// deployment is heterogeneous.
func dialectFor(i int) string {
	if i%2 == 0 {
		return "oracle"
	}
	return "postgres"
}
