package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"unicache"
	"unicache/internal/cache"
	"unicache/internal/cep"
	"unicache/internal/gapl"
	"unicache/internal/sql"
	"unicache/internal/table"
	"unicache/internal/types"
	"unicache/internal/vm"
	"unicache/internal/wal"
	"unicache/internal/wire"
	"unicache/perfbench/ref"
)

// replayInputs are a run's recorded inputs, replayed through each
// layer's exported functions after a traced run.
type replayInputs struct {
	// trace is what the watch taps recorded (commit time, topic, seq,
	// key, id), in delivery order per topic.
	trace []ref.Event
	// rows regenerates the full row of a trace entry.
	rows func(ref.Event) genRow
	// batches are the commit batch sizes, in order.
	batches []int
	// programs are the run's GAPL sources.
	programs []string
}

// depthSampler samples the engine's dispatch-queue depths at a fixed
// period during the measured window of a traced run.
type depthSampler struct {
	watch, auto samples
	quit, done  chan struct{}
}

const depthPeriod = 10 * time.Millisecond

func (r *run) sampleDepths(e unicache.Engine) *depthSampler {
	d := &depthSampler{quit: make(chan struct{}), done: make(chan struct{})}
	if r.tr == nil {
		close(d.done)
		return d
	}
	go func() {
		defer close(d.done)
		sleepUntil(r.ws)
		tick := time.NewTicker(depthPeriod)
		defer tick.Stop()
		for now() < r.we {
			select {
			case <-d.quit:
				return
			case <-tick.C:
			}
			st, err := e.Stats()
			if err != nil {
				r.fail("stats: %v", err)
				return
			}
			var w, a int64
			for _, s := range st.Watches {
				w = max(w, int64(s.Depth))
			}
			for _, s := range st.Automata {
				a = max(a, int64(s.Depth))
			}
			d.watch.add(w)
			d.auto.add(a)
		}
	}()
	return d
}

func (d *depthSampler) stop() *depthSampler {
	select {
	case <-d.done:
	default:
		close(d.quit)
		<-d.done
	}
	return d
}

// report adds the deepest-queue p99s: over the samples, the p99 of the
// deepest watch inbox and of the deepest automaton inbox.
func (d *depthSampler) report(r *run) {
	r.layerMetric("pubsub.watch_depth_p99", "events", pct(d.watch, 0.99), len(d.watch))
	r.layerMetric("pubsub.automaton_depth_p99", "events", pct(d.auto, 0.99), len(d.auto))
}

// activations reports the automata's summed Processed counts per
// committed event.
func (r *run) activations(e unicache.Engine, events int64) {
	st, err := e.Stats()
	if err != nil {
		r.fail("stats: %v", err)
		return
	}
	var n uint64
	for _, a := range st.Automata {
		n += a.Processed
	}
	r.layerMetric("automaton.activations_per_event", "count", float64(n)/float64(events), int(events))
}

// Replay sizes: how many of the run's recorded rows each replay uses,
// and how many times a timed replay repeats (the median is reported).
const (
	replayRows = 16384
	replayReps = 5
	rpcRows    = 4000
	walBatches = 128
)

// layerReplays replays the run's recorded inputs through each layer's
// exported functions, timing each call, and reports the per-layer
// metrics. The rpc and wal metrics come from the live run on the
// workload that drives those layers, and from a replay elsewhere.
func (r *run) layerReplays() error {
	r.layerMetric("gen.lateness_p99_us", "us", r.genLate.quantile(0.99)/1e3, int(r.genLate.n))
	in := r.replay
	trace := append([]ref.Event(nil), in.trace...)
	sort.Slice(trace, func(i, j int) bool { return trace[i].TS < trace[j].TS })
	if len(trace) > replayRows {
		trace = trace[:replayRows]
	}
	if len(trace) == 0 {
		return fmt.Errorf("no recorded rows to replay")
	}
	rows := make([][]types.Value, len(trace))
	for i, ev := range trace {
		rows[i] = in.rows(ev).values(ev.TS)
	}
	steps := []func() error{
		func() error { return r.replayWire(rows) },
		func() error { return r.replayCommit(rows) },
		func() error { return r.replayTable(rows, trace) },
		func() error { return r.replayVM(rows, trace, in.batches) },
		func() error { return r.replayCEP(rows, trace, in.batches) },
		func() error { return r.replayCompile(in.programs) },
		func() error { return r.replaySQL(rows) },
	}
	if r.workload != "remote-ingest" {
		steps = append(steps, func() error { return r.replayRPC(rows) })
	}
	if r.workload != "durable-rw" {
		steps = append(steps, func() error { return r.replayWAL(rows) })
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// timeReps runs fn replayReps times and returns the median duration in
// ns.
func timeReps(fn func() error) (float64, error) {
	var ds []float64
	for i := 0; i < replayReps; i++ {
		t0 := now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(now()-t0))
	}
	return median(ds), nil
}

// allocsPer counts heap allocations per call of fn over n calls.
func allocsPer(n int, fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

func chunks(rows [][]types.Value, size int) [][][]types.Value {
	var out [][][]types.Value
	for i := 0; i < len(rows); i += size {
		out = append(out, rows[i:min(i+size, len(rows))])
	}
	return out
}

func (r *run) replayWire(rows [][]types.Value) error {
	batches := chunks(rows, 64)
	encoded := make([][]byte, len(batches))
	enc := wire.NewEncoder(1 << 16)
	ns, err := timeReps(func() error {
		for i, b := range batches {
			enc.Reset()
			if err := enc.Rows(b); err != nil {
				return err
			}
			encoded[i] = append(encoded[i][:0], enc.Bytes()...)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.layerMetric("wire.encode_ns_per_row", "ns", ns/float64(len(rows)), len(rows))
	ns, err = timeReps(func() error {
		for _, buf := range encoded {
			if _, err := wire.NewDecoder(buf).Rows(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.layerMetric("wire.decode_ns_per_row", "ns", ns/float64(len(rows)), len(rows))
	enc.Reset()
	if err := enc.Rows(rows[:1]); err != nil {
		return err
	}
	one := append([]byte(nil), enc.Bytes()...)
	r.layerMetric("wire.decode_allocs_per_batch1", "allocs", allocsPer(1000, func() { _, _ = wire.NewDecoder(one).Rows() }), 1000)
	r.layerMetric("wire.decode_allocs_per_batch64", "allocs", allocsPer(200, func() { _, _ = wire.NewDecoder(encoded[0]).Rows() }), 200)
	return nil
}

// replayCommit times cache.CommitBatch with no subscribers, by batch
// size, and a tenant's cache.Scoped.CommitBatch of single rows.
func (r *run) replayCommit(rows [][]types.Value) error {
	for _, size := range []int{1, 64} {
		ns, err := timeReps(func() error {
			c, err := cache.New(cache.Config{TimerPeriod: -1})
			if err != nil {
				return err
			}
			defer c.Close()
			if err := c.CreateTable(streamSchema("R")); err != nil {
				return err
			}
			for _, b := range chunks(rows, size) {
				if err := c.CommitBatch("R", b); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		n := (len(rows) + size - 1) / size
		r.layerMetric(fmt.Sprintf("cache.commit_ns_per_batch%d", size), "ns", ns/float64(n), n)
	}
	ns, err := timeReps(func() error {
		reg, err := tenants()
		if err != nil {
			return err
		}
		c, err := cache.New(cache.Config{TimerPeriod: -1, Tenants: reg})
		if err != nil {
			return err
		}
		defer c.Close()
		t, _ := reg.Get(benchTenant)
		s := c.Scope(t)
		if err := s.CreateTable(streamSchema("R")); err != nil {
			return err
		}
		for _, b := range chunks(rows, 1) {
			if err := s.CommitBatch("R", b); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.layerMetric("tenant.scoped_commit_ns_per_batch", "ns", ns/float64(len(rows)), len(rows))
	return nil
}

func tuples(rows [][]types.Value, trace []ref.Event) []*types.Tuple {
	out := make([]*types.Tuple, len(rows))
	for i := range rows {
		out[i] = &types.Tuple{Seq: uint64(i + 1), TS: types.Timestamp(trace[i].TS), Vals: rows[i]}
	}
	return out
}

func (r *run) replayTable(rows [][]types.Value, trace []ref.Event) error {
	tups := tuples(rows, trace)
	var batches [][]*types.Tuple
	for i := 0; i < len(tups); i += 64 {
		batches = append(batches, tups[i:min(i+64, len(tups))])
	}
	ns, err := timeReps(func() error {
		t, err := table.NewEphemeral(streamSchema("R"), table.DefaultEphemeralCapacity)
		if err != nil {
			return err
		}
		for _, b := range batches {
			if err := t.InsertBatch(b); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.layerMetric("table.ephemeral_insert_ns_per_row", "ns", ns/float64(len(tups)), len(tups))
	var p *table.Persistent
	ns, err = timeReps(func() (err error) {
		if p, err = table.NewPersistent(keyedSchema("KV")); err != nil {
			return err
		}
		for _, b := range batches {
			if err := p.InsertBatch(b); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.layerMetric("table.persistent_upsert_ns_per_row", "ns", ns/float64(len(tups)), len(tups))
	n := 0
	ns, _ = timeReps(func() error {
		n = 0
		p.Scan(func(*types.Tuple) bool { n++; return true })
		return nil
	})
	r.layerMetric("table.scan_ns_per_row", "ns", ns/float64(max(n, 1)), n)
	return nil
}

// replayHost is the vm.Host of a replayed automaton: it counts send()
// calls and supports nothing else.
type replayHost struct{ sends int }

func (h *replayHost) Now() types.Timestamp                { return 0 }
func (h *replayHost) Publish(string, []types.Value) error { return fmt.Errorf("replay: no publish") }
func (h *replayHost) Send([]types.Value) error            { h.sends++; return nil }
func (h *replayHost) Print(string)                        {}
func (h *replayHost) AssocLookup(string, string) (types.Value, bool, error) {
	return types.Nil, false, fmt.Errorf("replay: no associations")
}
func (h *replayHost) AssocInsert(string, string, types.Value) error {
	return fmt.Errorf("replay: no associations")
}
func (h *replayHost) AssocHas(string, string) (bool, error) {
	return false, fmt.Errorf("replay: no associations")
}
func (h *replayHost) AssocRemove(string, string) (bool, error) {
	return false, fmt.Errorf("replay: no associations")
}
func (h *replayHost) AssocSize(string) (int, error) { return 0, fmt.Errorf("replay: no associations") }

// replaySchemas are the topics the replayed programs bind against: the
// cep-open topics and the built-in Timer.
func replaySchemas() (map[string]*types.Schema, error) {
	c, err := cache.New(cache.Config{TimerPeriod: -1})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	for _, t := range []string{"A", "B", "Ctl"} {
		if err := c.CreateTable(streamSchema(t)); err != nil {
			return nil, err
		}
	}
	return c.Schemas(), nil
}

// replayEvents turns the recorded rows into events on the cep-open
// topics: as recorded there, and split by id parity (odd A, even B) for
// the workloads with one stream.
func replayEvents(rows [][]types.Value, trace []ref.Event, schemas map[string]*types.Schema) []*types.Event {
	evs := make([]*types.Event, len(rows))
	for i, ev := range trace {
		topic := ev.Topic
		if topic != "A" && topic != "B" {
			topic = "A"
			if ev.ID%2 == 0 {
				topic = "B"
			}
		}
		evs[i] = &types.Event{Topic: topic, Schema: schemas[topic],
			Tuple: &types.Tuple{Seq: ev.Seq, TS: types.Timestamp(ev.TS), Vals: rows[i]}}
	}
	return evs
}

func compileBound(src string, schemas map[string]*types.Schema) (*gapl.Compiled, error) {
	prog, err := gapl.Compile(src)
	if err != nil {
		return nil, err
	}
	return prog, prog.Bind(schemas)
}

// runs cuts events into runs of the recorded batch sizes.
func runs(evs []*types.Event, sizes []int) [][]*types.Event {
	var out [][]*types.Event
	i := 0
	for _, n := range sizes {
		if i >= len(evs) {
			break
		}
		out = append(out, evs[i:min(i+n, len(evs))])
		i += n
	}
	if i < len(evs) {
		out = append(out, evs[i:])
	}
	return out
}

func (r *run) replayVM(rows [][]types.Value, trace []ref.Event, sizes []int) error {
	schemas, err := replaySchemas()
	if err != nil {
		return err
	}
	evs := replayEvents(rows, trace, schemas)
	var onA, onB []*types.Event
	for _, ev := range evs {
		if ev.Topic == "A" {
			onA = append(onA, ev)
		} else {
			onB = append(onB, ev)
		}
	}
	ns, err := timeReps(func() error {
		prog, err := compileBound(countProgram, schemas)
		if err != nil {
			return err
		}
		m, err := vm.New(prog, &replayHost{})
		if err != nil {
			return err
		}
		if err := m.RunInit(); err != nil {
			return err
		}
		for _, ev := range onA {
			if err := m.Deliver(ev); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.layerMetric("vm.event_ns", "ns", ns/float64(max(len(onA), 1)), len(onA))
	ns, err = timeReps(func() error {
		prog, err := compileBound(aggProgram, schemas)
		if err != nil {
			return err
		}
		m, err := vm.New(prog, &replayHost{})
		if err != nil {
			return err
		}
		if err := m.RunInit(); err != nil {
			return err
		}
		for _, run := range runs(onB, sizes) {
			if err := m.DeliverBatch(run); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.layerMetric("vm.batch_ns_per_event", "ns", ns/float64(max(len(onB), 1)), len(onB))
	return nil
}

func (r *run) replayCEP(rows [][]types.Value, trace []ref.Event, sizes []int) error {
	schemas, err := replaySchemas()
	if err != nil {
		return err
	}
	evs := replayEvents(rows, trace, schemas)
	var peak int
	var matches uint64
	ns, err := timeReps(func() error {
		prog, err := compileBound(seqProgram, schemas)
		if err != nil {
			return err
		}
		pat, err := cep.CompilePattern(prog, schemas)
		if err != nil {
			return err
		}
		m := cep.NewMachine(pat)
		peak = 0
		for _, run := range runs(evs, sizes) {
			m.ObserveBatch(run)
			peak = max(peak, m.Partials())
		}
		matches = m.Matches()
		return nil
	})
	if err != nil {
		return err
	}
	r.layerMetric("cep.observe_ns_per_event", "ns", ns/float64(len(evs)), len(evs))
	r.layerMetric("cep.partials_peak", "count", float64(peak), len(evs))
	r.layerMetric("cep.matches_per_event", "count", float64(matches)/float64(len(evs)), len(evs))
	return nil
}

func (r *run) replayCompile(programs []string) error {
	const reps = 200
	ns, err := timeReps(func() error {
		for i := 0; i < reps; i++ {
			for _, src := range programs {
				if _, err := gapl.Compile(src); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	n := reps * len(programs)
	r.layerMetric("gapl.compile_us_per_program", "us", ns/float64(n)/1e3, n)
	return nil
}

// replaySQL loads the recorded rows, last write per key, into a keyed
// table and times parsing and executing the workloads' point lookup and
// group-by aggregate.
func (r *run) replaySQL(rows [][]types.Value) error {
	c, err := cache.New(cache.Config{TimerPeriod: -1})
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.CreateTable(keyedSchema("KV")); err != nil {
		return err
	}
	for _, b := range chunks(rows, 64) {
		if err := c.CommitBatch("KV", b); err != nil {
			return err
		}
	}
	var queries []string
	for i := 0; i < 256; i++ {
		k, _ := rows[(i*7919)%len(rows)][colK].AsStr()
		queries = append(queries, fmt.Sprintf("select v, id from KV where k = '%s'", k))
	}
	agg := groupQuery("KV")
	ns, err := timeReps(func() error {
		for _, q := range append(queries, agg) {
			if _, err := sql.Parse(q); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.layerMetric("sql.parse_us_per_query", "us", ns/float64(len(queries)+1)/1e3, len(queries)+1)
	ns, err = timeReps(func() error {
		for _, q := range queries {
			if _, err := sql.ExecString(c, q); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.layerMetric("sql.exec_us_point", "us", ns/float64(len(queries))/1e3, len(queries))
	const aggReps = 16
	ns, err = timeReps(func() error {
		for i := 0; i < aggReps; i++ {
			if _, err := sql.ExecString(c, agg); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.layerMetric("sql.exec_us_aggregate", "us", ns/aggReps/1e3, aggReps)
	return nil
}

// replayRPC sends the first recorded rows as single-row inserts over a
// wrapped loopback connection to a tenant on an in-process server, with
// the remote-ingest watch tap and emit automaton attached, and reports
// the connection counters and the handshake time.
func (r *run) replayRPC(rows [][]types.Value) error {
	rows = rows[:min(rpcRows, len(rows))]
	reg, err := tenants()
	if err != nil {
		return err
	}
	e, err := unicache.NewEmbedded(unicache.Config{Tenants: reg})
	if err != nil {
		return err
	}
	defer e.Close()
	srv, addr, err := serve(r, e)
	if err != nil {
		return err
	}
	defer srv.Close()
	rem, _, authNS, err := dialTenant(r, addr)
	if err != nil {
		return err
	}
	defer rem.Close()
	if err := rem.CreateTable(streamSchema("Ticks")); err != nil {
		return err
	}
	var seen atomic.Int64
	w, err := rem.Watch("Ticks", func(*unicache.Event) { seen.Add(1) })
	if err != nil {
		return err
	}
	defer w.Close()
	a, err := rem.Register(emitProgram("Ticks", remoteModulus), outputBuffer)
	if err != nil {
		return err
	}
	defer a.Close()
	r.tr.zeroCounters()
	for i, row := range rows {
		// Renumber the ids so the emit automaton's modulus sees 1..n.
		row = append([]types.Value(nil), row...)
		row[colID] = intV(int64(i + 1))
		if err := rem.InsertBatch("Ticks", [][]types.Value{row}); err != nil {
			return err
		}
	}
	want := int64(len(rows))
	deadline := time.Now().Add(20 * time.Second)
	for (seen.Load() < want || len(a.Events()) < int(want/remoteModulus)) && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	io := r.tr.snapshot()
	r.rpcMetrics(io, want, want)
	r.layerMetric("tenant.auth_us", "us", float64(authNS)/1e3, 1)
	return nil
}

// replayWAL upserts the recorded rows in 64-row batches into a keyed
// table on a durable engine over the wrapped WAL filesystem, then
// reopens it, and reports the WAL counters and the recovery time.
func (r *run) replayWAL(rows [][]types.Value) error {
	dir := filepath.Join(r.outDir, fmt.Sprintf("replay-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	cfg := unicache.Config{DataDir: dir, WALFS: tracedFS{FS: wal.OS, t: r.tr}, TimerPeriod: -1}
	e, err := unicache.NewEmbedded(cfg)
	if err != nil {
		return err
	}
	if err := e.CreateTable(keyedSchema("KV")); err != nil {
		e.Close()
		return err
	}
	batches := chunks(rows, 64)
	batches = batches[:min(walBatches, len(batches))]
	r.tr.zeroCounters()
	var events int64
	for _, b := range batches {
		if err := e.InsertBatch("KV", b); err != nil {
			e.Close()
			return err
		}
		events += int64(len(b))
	}
	io := r.tr.snapshot()
	r.tr.syncMu.Lock()
	syncs := append(samples(nil), r.tr.syncs...)
	r.tr.syncMu.Unlock()
	e.Close()
	t0 := now()
	e, err = unicache.NewEmbedded(cfg)
	recovery := now() - t0
	if err != nil {
		return err
	}
	e.Close()
	r.walMetrics(io, syncs, int64(len(batches)), events, recovery)
	return nil
}
