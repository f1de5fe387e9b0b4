package sql

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"

	"github.com/odbis/odbis/internal/fault"
	"github.com/odbis/odbis/internal/obs"
	"github.com/odbis/odbis/internal/storage"
)

// The plan cache closes the loop on the phase-split read path: parse
// and plan run once per distinct (namespace, SQL text) pair, and every
// later execution of the same text reuses the immutable *Plan.
// Dashboards — the paper's dominant workload, a fixed set of report
// queries re-run per refresh (§3.3) — hit the cache on every element
// after the first render.
//
// Coherence is epoch-based: every DDL statement bumps the engine's
// schema epoch (storage.Engine.SchemaEpoch), and a cached plan is only
// reused while its recorded epoch is current. A stale entry keeps its
// parsed statement and transparently replans — counted as a miss.

// planCacheCap bounds the entries kept per engine. Eviction is LRU.
const planCacheCap = 256

// planCacheOn gates the cache globally; the index-ablation and
// cached-vs-uncached benchmarks flip it off to measure the parse+plan
// cost the cache removes.
var planCacheOn atomic.Bool

func init() { planCacheOn.Store(true) }

// SetPlanCacheEnabled toggles plan caching process-wide (benchmarks,
// odbisctl experiments). Disabling does not drop existing entries;
// they are simply bypassed until re-enabled.
func SetPlanCacheEnabled(on bool) { planCacheOn.Store(on) }

// PlanCacheEnabled reports whether plan caching is active.
func PlanCacheEnabled() bool { return planCacheOn.Load() }

type cacheKey struct {
	ns   string // tenant namespace; "" for plain DB queries
	text string // statement text as submitted
}

// planEntry is one cached statement: the parsed (and, for tenants,
// rewritten) SELECT plus the most recent plan compiled from it. The
// statement is immutable; the plan pointer is swapped under mu when
// the schema epoch moves.
type planEntry struct {
	sel  *SelectStmt
	mu   sync.Mutex
	plan *Plan
}

// resolve returns a plan valid for the engine's current schema epoch,
// recompiling a stale or missing one.
func (e *planEntry) resolve(db *DB) (*Plan, error) {
	epoch := db.Engine.SchemaEpoch()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.plan != nil && e.plan.epoch == epoch {
		return e.plan, nil
	}
	p, err := planSelect(db, e.sel)
	if err != nil {
		e.plan = nil
		return nil, err
	}
	e.plan = p
	return p, nil
}

// fresh reports whether the cached plan is valid at epoch.
func (e *planEntry) fresh(epoch uint64) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.plan != nil && e.plan.epoch == epoch
}

type lruItem struct {
	key cacheKey
	e   *planEntry
}

// PlanCache is a bounded LRU of compiled plans, one per storage
// engine (attached via Engine.Attachment so every DB handle over the
// same engine shares it).
type PlanCache struct {
	mu        sync.Mutex
	cap       int
	entries   map[cacheKey]*list.Element
	lru       list.List // front = most recently used; values are *lruItem
	hits      uint64
	misses    uint64
	evictions uint64
}

func newPlanCache(capacity int) *PlanCache {
	c := &PlanCache{cap: capacity, entries: make(map[cacheKey]*list.Element, capacity)}
	c.lru.Init()
	return c
}

func (c *PlanCache) lookup(ns, text string) *planEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[cacheKey{ns: ns, text: text}]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(el)
	return el.Value.(*lruItem).e
}

func (c *PlanCache) insert(ns, text string, sel *SelectStmt) *planEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := cacheKey{ns: ns, text: text}
	if el, ok := c.entries[k]; ok {
		c.lru.MoveToFront(el)
		return el.Value.(*lruItem).e
	}
	e := &planEntry{sel: sel}
	c.entries[k] = c.lru.PushFront(&lruItem{key: k, e: e})
	if len(c.entries) > c.cap {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.entries, back.Value.(*lruItem).key)
		c.evictions++
		mPlanCacheEvictions.Inc()
	}
	return e
}

func (c *PlanCache) hit() {
	c.mu.Lock()
	c.hits++
	c.mu.Unlock()
	mPlanCacheHits.Inc()
}

func (c *PlanCache) miss() {
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	mPlanCacheMisses.Inc()
}

// PlanCacheStats is a point-in-time snapshot of one engine's cache.
type PlanCacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Entries   int
}

// PlanCacheStats returns the cache counters of the DB's engine.
func (db *DB) PlanCacheStats() PlanCacheStats {
	c := db.planCache()
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanCacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Entries: len(c.entries)}
}

type planCacheAttachKey struct{}

func (db *DB) planCache() *PlanCache {
	return db.Engine.Attachment(planCacheAttachKey{}, func() any {
		return newPlanCache(planCacheCap)
	}).(*PlanCache)
}

// Stmt is a prepared statement of any kind. A SELECT prepared with the
// cache on is a handle onto a cache entry whose plan is revalidated
// against the schema epoch on every execution; everything else (DML,
// DDL, EXPLAIN, or a SELECT while caching is off) is a one-shot handle
// over the parsed statement. Handles are cheap and safe for concurrent
// use; the statement and any plan behind them are immutable.
type Stmt struct {
	db   *DB
	stmt Statement
	e    *planEntry // cached SELECTs only
}

// Statement returns the parsed (and, when Prepare was given a rewrite,
// rewritten) statement the handle executes. Callers must not mutate it.
func (s *Stmt) Statement() Statement { return s.stmt }

// Prepare turns statement text into an executable handle. It is the
// only place a caller's text meets the plan cache or the parser: a
// SELECT already cached under (ns, text) is returned without parsing —
// counted as a hit, or as a miss when DDL has made its plan stale (the
// replan happens at execution); any other text is parsed once, has its
// table names mapped through rewrite (nil = none), and, when it is a
// SELECT, is cached under (ns, text) and counted as the miss the parse
// just paid. With caching off nothing is cached or counted.
func (db *DB) Prepare(ns, text string, rewrite func(table string) string) (*Stmt, error) {
	var c *PlanCache
	if planCacheOn.Load() && !db.DisableIndexes {
		c = db.planCache()
		if e := c.lookup(ns, text); e != nil {
			if e.fresh(db.Engine.SchemaEpoch()) {
				c.hit()
			} else {
				c.miss()
			}
			return &Stmt{db: db, stmt: e.sel, e: e}, nil
		}
	}
	stmt, err := Parse(text)
	if err != nil {
		return nil, err
	}
	if rewrite != nil {
		stmt = RewriteTables(stmt, rewrite)
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok || c == nil {
		return &Stmt{db: db, stmt: stmt}, nil
	}
	c.miss()
	return &Stmt{db: db, stmt: sel, e: c.insert(ns, text, sel)}, nil
}

// QueryContext executes the statement in its own transaction. The
// executor checks ctx at row-granularity checkpoints (scans, joins,
// grouping, sorting); a cancelled or expired ctx aborts the statement
// with the ctx error after rolling the transaction back.
func (s *Stmt) QueryContext(ctx context.Context, args ...storage.Value) (*Result, error) {
	ctx, span := obs.StartSpan(ctx, "sql.exec")
	defer span.End()
	var res *Result
	err := s.db.Engine.UpdateCtx(ctx, func(tx *storage.Tx) error {
		// The sql.exec point fires inside the transaction on purpose: a
		// panic injected here unwinds through UpdateCtx's deferred
		// rollback and on into the server's recovery middleware — the
		// full "handler dies mid-transaction" drill.
		if err := fault.PointCtx(ctx, fault.SQLExec); err != nil {
			return err
		}
		var err error
		res, err = s.QueryTx(tx, args...)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// QueryTx executes the statement inside an existing transaction. The
// executor observes the transaction's context (see Engine.BeginCtx).
func (s *Stmt) QueryTx(tx *storage.Tx, args ...storage.Value) (*Result, error) {
	ex := s.db.newExecutor(tx)
	if s.e != nil {
		p, err := s.e.resolve(s.db)
		if err != nil {
			return nil, err
		}
		ex.plans = map[*SelectStmt]*Plan{s.e.sel: p}
	}
	res, err := ex.run(s.stmt, args)
	ex.flush()
	return res, err
}
