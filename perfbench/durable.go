package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"unicache"
	"unicache/internal/wal"
	"unicache/perfbench/ref"
)

// durable-rw: on a durable engine with fsync on, one writer upserts
// 64-row batches into a keyed persistent table, closed loop, with
// Zipf-skewed keys, while one reader runs SQL point lookups, a group-by
// aggregate and count(*) against the same table, closed loop. The WAL,
// the persistent table and SQL do the work. A watch tap and an automaton
// that sends one row in 64 are the subscribers whose latency this
// workload reports.
const (
	durableKeys    = 2048
	durableZipf    = 1.1
	durableBatch   = 64
	durablePreload = 1024 // rows written, then recovered, in set-up
	// readerThink is the reader's pause between queries: the reader stays
	// closed loop (one query at a time, the next only after the last
	// returned) but leaves the writer and the subscribers their share of
	// the two cores, so the split between them does not drift from run to
	// run.
	readerThink = time.Millisecond
)

type durableRW struct {
	dir        string
	cfg        unicache.Config
	e          *unicache.Embedded
	gen        rowGen
	keyIndex   map[string]int
	preload    int64
	sent       atomic.Int64
	tap        *tap
	watch      unicache.Watch
	auto       unicache.Automaton
	out        *outputs
	emits      *emitCheck
	recoveryNS int64
}

var durableSeq atomic.Int64

func setupDurableRW(r *run) (env, error) {
	keys := keyNames("kv", durableKeys)
	r.rng("durable-keys").Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	c := &durableRW{gen: r.rowGen("durable", keys, durableZipf), keyIndex: map[string]int{}, preload: durablePreload}
	for i, k := range keys {
		c.keyIndex[k] = i
	}
	c.dir = filepath.Join(r.outDir, fmt.Sprintf("data-%d-%d", os.Getpid(), durableSeq.Add(1)))
	if err := os.RemoveAll(c.dir); err != nil {
		return nil, err
	}
	c.cfg = unicache.Config{DataDir: c.dir}
	if r.tr != nil {
		c.cfg.WALFS = tracedFS{FS: wal.OS, t: r.tr}
	}
	err := r.traced(spSetupStep, func() error {
		// Preload through the façade, close, and reopen: recovery is part
		// of set-up.
		e, err := unicache.NewEmbedded(c.cfg)
		if err != nil {
			return err
		}
		if err := e.CreateTable(keyedSchema("KV")); err != nil {
			e.Close()
			return err
		}
		for id := int64(1); id <= c.preload; id += durableBatch {
			if err := e.InsertBatch("KV", c.batch(id, 0)); err != nil {
				e.Close()
				return err
			}
		}
		e.Close()
		t0 := now()
		err = r.traced(spRecovery, func() (err error) {
			c.e, err = unicache.NewEmbedded(c.cfg)
			return err
		})
		c.recoveryNS = now() - t0
		if err != nil {
			return err
		}
		c.sent.Store(c.preload)
		c.tap = newTap(r, "KV", c.gen.upTo(&c.sent))
		c.tap.seq0, c.tap.id0 = uint64(c.preload), c.preload
		if c.watch, err = c.e.Watch("KV", c.tap.observe); err != nil {
			return err
		}
		c.auto, err = c.e.Register(emitProgram("KV", durableBatch), outputBuffer)
		return err
	})
	if err != nil {
		c.close()
		return nil, err
	}
	c.emits = newEmitCheck(r, "emit automaton", durableBatch)
	c.out = collect(r, c.auto, c.emits.observe)
	return c, nil
}

// batch builds the 64 rows with ids first.. stamped at stamp.
func (c *durableRW) batch(first, stamp int64) [][]unicache.Value {
	rows := batchRows(durableBatch)
	for i, row := range rows {
		c.gen.row(first+int64(i)).fill(row, stamp)
	}
	return rows
}

func (c *durableRW) close() {
	if c.e != nil {
		c.e.Close()
	}
	os.RemoveAll(c.dir)
}

// keyState tracks, per key, what the writer has started and what has
// been acknowledged, for the checks the reader makes while it runs.
type keyState struct {
	started  []bool // writer-only
	acked    []atomic.Bool
	nStarted atomic.Int64
	nAcked   atomic.Int64
}

func (c *durableRW) measure(r *run) error {
	defer c.close()
	ks := &keyState{started: make([]bool, durableKeys), acked: make([]atomic.Bool, durableKeys)}
	for id := int64(1); id <= c.preload; id++ {
		k := c.keyIndex[c.gen.row(id).key]
		if !ks.started[k] {
			ks.started[k] = true
			ks.acked[k].Store(true)
			ks.nStarted.Add(1)
			ks.nAcked.Add(1)
		}
	}

	ins := r.op("upsert")
	start := now() + int64(10*time.Millisecond)
	r.window(start + int64(warmup))
	stop := r.we + int64(tail)
	if r.tr != nil {
		r.tr.zeroCounters()
		c.tap.record(replayRows / durableBatch)
	}
	rd := &reader{r: r, c: c, ks: ks, done: make(chan struct{}),
		point: r.op("query.point"), agg: r.op("query.aggregate"), count: r.op("query.count")}
	go rd.run(start, stop)
	depth := r.sampleDepths(c.e)
	use := r.watchUsage()

	var ack lat
	var late hist
	var events done
	var batchesInPhase int64
	id := c.preload
	sleepUntil(start)
	last := now()
	for last < stop {
		t0 := now()
		late.add(t0 - last)
		first := id + 1
		rows := c.batch(first, t0)
		for i := range rows {
			k := c.keyIndex[c.gen.row(first+int64(i)).key]
			if !ks.started[k] {
				ks.started[k] = true
				ks.nStarted.Add(1)
			}
		}
		id += durableBatch
		c.sent.Store(id)
		ins.attempted.Add(1)
		err := r.traced(spInsertBatch, func() error { return c.e.InsertBatch("KV", rows) })
		last = now()
		batchesInPhase++
		if err != nil {
			ins.failed.Add(1)
			r.fail("upsert: %v", err)
			continue
		}
		for i := range rows {
			k := c.keyIndex[c.gen.row(first+int64(i)).key]
			if !ks.acked[k].Load() {
				ks.acked[k].Store(true)
				ks.nAcked.Add(1)
			}
		}
		ack.add(r, t0, last-t0)
		events.add(r, last, durableBatch)
	}
	r.addGenLate(&late)
	<-rd.done
	depthStats := depth.stop()
	var io ioSnapshot
	var syncs samples
	if r.tr != nil {
		io = r.tr.snapshot()
		r.tr.syncMu.Lock()
		syncs = append(syncs, r.tr.syncs...)
		r.tr.syncMu.Unlock()
	}

	deadline := time.Now().Add(20 * time.Second)
	if !unicache.WaitIdle(c.e, 20*time.Second) {
		r.fail("automata did not go idle after the run")
	}
	c.tap.wait(id-c.preload, deadline)
	c.emits.wait(c.preload+1, id, deadline)
	written := id - c.preload
	if r.tr != nil {
		r.activations(c.e, written)
		r.walMetrics(io, syncs, batchesInPhase, written, c.recoveryNS)
	}
	c.watch.Close()
	c.auto.Close()
	<-c.out.done
	c.emits.finish(c.preload+1, id)
	c.checkFinal(r, id)

	r.resourceMetrics(use, events)
	r.unboundedMetric("ingest_events_per_s", "events/s", r.rate(events), int(events.total()))
	r.latencyMetrics("commit_ack", ack, true)
	r.latencyMetrics("delivery", c.tap.lat, false)
	r.latencyMetrics("emit", c.emits.lat, false)
	r.unboundedMetric("queries_per_s", "queries/s", r.rate(rd.queries), int(rd.queries.total()))
	r.latencyMetrics("query", rd.lat, false)
	if r.tr != nil {
		depthStats.report(r)
		r.replay = replayInputs{
			trace:    c.tap.events(func(id int64) string { return c.gen.row(id).key }),
			rows:     func(ev ref.Event) genRow { return c.gen.row(ev.ID) },
			batches:  repeat(durableBatch, int(written/durableBatch)),
			programs: []string{emitProgram("KV", durableBatch)},
		}
	}
	return nil
}

func repeat(v, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// checkFinal reads the whole table back through SQL and compares it, and
// the group-by aggregate, with last-write-wins over every write.
func (c *durableRW) checkFinal(r *run, last int64) {
	var writes []ref.Row
	for id := int64(1); id <= last; id++ {
		writes = append(writes, c.gen.row(id).ref())
	}
	want := ref.LastWrite(writes)
	res, err := c.e.Exec("select k, g, v, id from KV")
	if err != nil {
		r.fail("final scan: %v", err)
		return
	}
	if len(res.Rows) != len(want) {
		r.fail("final scan: %d rows, want %d keys", len(res.Rows), len(want))
	}
	for _, row := range res.Rows {
		k, _ := row[0].AsStr()
		g, _ := row[1].AsInt()
		v, _ := row[2].AsInt()
		id, _ := row[3].AsInt()
		if w, ok := want[k]; !ok || w != (ref.Row{Key: k, G: g, V: v, ID: id}) {
			r.fail("final scan: key %s = (g %d, v %d, id %d), want %+v", k, g, v, id, want[k])
			return
		}
	}
	res, err = c.e.Exec(groupQuery("KV"))
	if err != nil {
		r.fail("final aggregate: %v", err)
		return
	}
	if err := checkGroups(res, ref.GroupBy(want)); err != nil {
		r.fail("final %v", err)
	}
}

func groupQuery(table string) string {
	return "select g, count(*) as n, sum(v) as s from " + table + " group by g"
}

// checkGroups compares a groupQuery result with the reference groups.
func checkGroups(res *unicache.Result, want map[int64]ref.Group) error {
	if len(res.Rows) != len(want) {
		return fmt.Errorf("aggregate: %d groups, want %d", len(res.Rows), len(want))
	}
	for _, row := range res.Rows {
		if len(row) != 3 {
			return fmt.Errorf("aggregate: row has %d columns", len(row))
		}
		g, _ := row[0].NumAsInt()
		n, _ := row[1].NumAsInt()
		s, _ := row[2].NumAsInt()
		if w, ok := want[g]; !ok || w.N != n || w.Sum != s {
			return fmt.Errorf("aggregate: group %d = (n %d, sum %d), want %+v", g, n, s, want[g])
		}
	}
	return nil
}

// reader is durable-rw's closed-loop SQL client: point lookups, the
// group-by aggregate and count(*), checked while the writer runs.
type reader struct {
	r                 *run
	c                 *durableRW
	ks                *keyState
	point, agg, count *opCounter
	lat               lat
	queries           done
	lastCount         int64
	done              chan struct{}
}

func (rd *reader) run(start, stop int64) {
	defer close(rd.done)
	var late hist
	defer func() { rd.r.addGenLate(&late) }()
	keys := rd.c.gen
	rng := rd.r.rng("durable-reader")
	sleepUntil(start)
	last := now()
	for i := 0; last < stop; i++ {
		t0 := now()
		late.add(t0 - last)
		var err error
		switch i % 4 {
		case 0, 2:
			rd.point.attempted.Add(1)
			if err = rd.lookup(keys.keys[keys.key(rng.Uint64())]); err != nil {
				rd.point.failed.Add(1)
			}
		case 1:
			rd.agg.attempted.Add(1)
			if err = rd.aggregate(); err != nil {
				rd.agg.failed.Add(1)
			}
		case 3:
			rd.count.attempted.Add(1)
			if err = rd.countRows(); err != nil {
				rd.count.failed.Add(1)
			}
		}
		end := now()
		if err != nil {
			rd.r.fail("reader: %v", err)
		}
		rd.lat.add(rd.r, t0, end-t0)
		rd.queries.add(rd.r, end, 1)
		time.Sleep(readerThink)
		last = now()
	}
}

func (rd *reader) exec(q string) (*unicache.Result, error) {
	var res *unicache.Result
	err := rd.r.traced(spExec, func() (err error) {
		res, err = rd.c.e.Exec(q)
		return err
	})
	return res, err
}

// lookup checks a point read: the row returned must be one the writer
// wrote for that key, and a key whose write was acknowledged before the
// query must be found.
func (rd *reader) lookup(key string) error {
	wasAcked := rd.ks.acked[rd.c.keyIndex[key]].Load()
	res, err := rd.exec(fmt.Sprintf("select v, id from KV where k = '%s'", key))
	if err != nil {
		return err
	}
	switch len(res.Rows) {
	case 0:
		if wasAcked {
			return fmt.Errorf("point lookup of %s: acknowledged key not found", key)
		}
		return nil
	case 1:
		v, _ := res.Rows[0][0].AsInt()
		id, _ := res.Rows[0][1].AsInt()
		if id < 1 || id > rd.c.sent.Load() {
			return fmt.Errorf("point lookup of %s: id %d was never written", key, id)
		}
		if w := rd.c.gen.row(id); w.key != key || w.v != v {
			return fmt.Errorf("point lookup of %s: (v %d, id %d) is not a write of that key", key, v, id)
		}
		return nil
	}
	return fmt.Errorf("point lookup of %s: %d rows", key, len(res.Rows))
}

// bounds checks a row count read while the writer runs: it never
// decreases, never exceeds the distinct keys written, and covers every
// key acknowledged before the query.
func (rd *reader) bounds(what string, n, ackedBefore int64) error {
	started := rd.ks.nStarted.Load()
	if n < rd.lastCount || n > started || n < ackedBefore {
		return fmt.Errorf("%s: %d rows after %d, with %d keys acknowledged and %d written", what, n, rd.lastCount, ackedBefore, started)
	}
	rd.lastCount = n
	return nil
}

func (rd *reader) countRows() error {
	acked := rd.ks.nAcked.Load()
	res, err := rd.exec("select count(*) as n from KV")
	if err != nil {
		return err
	}
	if len(res.Rows) != 1 {
		return fmt.Errorf("count(*): %d rows", len(res.Rows))
	}
	n, _ := res.Rows[0][0].NumAsInt()
	return rd.bounds("count(*)", n, acked)
}

func (rd *reader) aggregate() error {
	acked := rd.ks.nAcked.Load()
	res, err := rd.exec(groupQuery("KV"))
	if err != nil {
		return err
	}
	var n int64
	for _, row := range res.Rows {
		c, _ := row[1].NumAsInt()
		n += c
	}
	return rd.bounds("aggregate", n, acked)
}

// walMetrics reports the wrapped WAL filesystem's counters over a
// phase of commits batches holding events rows.
func (r *run) walMetrics(io ioSnapshot, syncs samples, commits, events, recoveryNS int64) {
	nsync := io[spWALSync].calls
	r.layerMetric("wal.fsync_p50_us", "us", pct(syncs, 0.50)/1e3, len(syncs))
	r.layerMetric("wal.fsync_p99_us", "us", pct(syncs, 0.99)/1e3, len(syncs))
	r.layerMetric("wal.commits_per_fsync", "count", float64(commits)/float64(max(nsync, 1)), int(commits))
	r.layerMetric("wal.bytes_per_event", "bytes", float64(io[spWALWrite].bytes)/float64(events), int(events))
	r.layerMetric("wal.writes_per_commit", "count", float64(io[spWALWrite].calls)/float64(commits), int(commits))
	r.layerMetric("wal.write_ns_per_event", "ns", float64(io[spWALWrite].ns)/float64(events), int(events))
	r.layerMetric("wal.recovery_s", "s", float64(recoveryNS)/1e9, 1)
}
