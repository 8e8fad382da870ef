package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"unicache"
	"unicache/perfbench/ref"
)

// cep-open: an open-loop generator commits a batch into each of two
// stream topics, A and B, every tick at a fixed offered rate, on an
// embedded in-memory engine running the default Config. Subscribers do nearly all the work:
// a watch tap per topic, a per-event counting behaviour over A, a
// batchable windowed aggregate over B, and a two-topic SEQ pattern
// correlating A with B by key.
//
// The offered rate is half the highest rate at which the automata's
// backlog stayed flat on a 2-core box (about 80 000 rows/s per topic with
// this generator; at 100 000 the pattern's inbox grew for the whole run).
const (
	cepRatePerTopic = 40000                              // offered rows/s on each of A and B
	cepTickMS       = 2                                  // the generator's period
	cepBatch        = cepRatePerTopic * cepTickMS / 1000 // rows per topic per tick
	cepKeys         = 16                                 // correlation keys, uniform
	cepWithinMS     = 100                                // pattern window
	cepWindowRows   = 1024                               // aggregate window
)

// The automata of cep-open, registered in set-up.
var (
	// countProgram tallies A's rows per key, one activation per event,
	// and dumps the tallies when the control topic fires.
	countProgram = `subscribe a to A;
subscribe c to Ctl;
map counts;
iterator it;
identifier key;
int total;
initialization {
	counts = Map(int);
}
behavior {
	if (currentTopic() == 'Ctl') {
		it = Iterator(counts);
		while (hasNext(it)) {
			key = next(it);
			send('count', key, lookup(counts, key));
		}
		send('total', total);
	} else {
		total += 1;
		key = Identifier(a.k);
		if (hasEntry(counts, key)) {
			insert(counts, key, lookup(counts, key) + 1);
		} else {
			insert(counts, key, 1);
		}
	}
}
`
	// aggProgram is a batchable sliding-window aggregate over B's values:
	// one activation per drained run.
	aggProgram = fmt.Sprintf(`subscribe b to B;
window w;
initialization {
	w = Window(int, ROWS, %d);
}
behavior {
	appendRun(w, b.v);
	send(winSum(w), winSize(w), winAvg(w));
}
`, cepWindowRows)
	// seqProgram correlates each A with the next B of the same key.
	seqProgram = fmt.Sprintf(`subscribe a to A;
subscribe b to B;
pattern {
	match a then b within %d MSECS;
	where b.k == a.k;
	emit a.id, b.id, b.stamp;
}
`, cepWithinMS)
)

type cepOpen struct {
	e          *unicache.Embedded
	gen        [2]rowGen
	sent       [2]atomic.Int64
	tapA, tapB *tap
	tapCtl     *tap
	watches    []unicache.Watch
	count      unicache.Automaton
	agg        unicache.Automaton
	seq        unicache.Automaton
	outCount   *outputs
	outAgg     *outputs
	outSeq     *outputs
	// matches and emit are the pattern's outputs, folded by the
	// pattern's collector into a digest and a latency record, and lastAgg
	// is the window aggregate's latest output: the collectors keep
	// nothing that grows with the run.
	matches ref.Digest
	emit    lat
	lastAgg []unicache.Value
}

// cepBatches is how many batches each topic receives over the whole
// generated phase.
func cepBatches(seconds int) int {
	phase := warmup + time.Duration(seconds)*time.Second + tail
	return int(phase / (time.Duration(cepTickMS) * time.Millisecond))
}

func setupCEPOpen(r *run) (env, error) {
	c := &cepOpen{}
	keys := keyNames("k", cepKeys)
	c.gen = [2]rowGen{r.rowGen("cep-A", keys, 0), r.rowGen("cep-B", keys, 0)}
	ctl := []genRow{{key: "end", id: 1}}
	err := r.traced(spSetupStep, func() error {
		var err error
		c.e, err = unicache.NewEmbedded(unicache.Config{})
		if err != nil {
			return err
		}
		for _, t := range []string{"A", "B", "Ctl"} {
			if err := c.e.CreateTable(streamSchema(t)); err != nil {
				return err
			}
		}
		c.tapA = newTap(r, "A", c.gen[0].upTo(&c.sent[0]))
		c.tapB = newTap(r, "B", c.gen[1].upTo(&c.sent[1]))
		c.tapCtl = newTap(r, "Ctl", rowsByID(ctl))
		for _, t := range []*tap{c.tapA, c.tapB, c.tapCtl} {
			w, err := c.e.Watch(t.topic, t.observe)
			if err != nil {
				return err
			}
			c.watches = append(c.watches, w)
		}
		if c.count, err = c.e.Register(countProgram, outputBuffer); err != nil {
			return fmt.Errorf("count program: %w", err)
		}
		if c.agg, err = c.e.Register(aggProgram, outputBuffer); err != nil {
			return fmt.Errorf("aggregate program: %w", err)
		}
		if c.seq, err = c.e.Register(seqProgram, patternBuffer); err != nil {
			return fmt.Errorf("pattern program: %w", err)
		}
		return nil
	})
	if err != nil {
		if c.e != nil {
			c.e.Close()
		}
		return nil, err
	}
	c.outCount = collect(r, c.count, nil)
	c.outAgg = collect(r, c.agg, func(_ int64, vals []unicache.Value) { c.lastAgg = vals })
	c.outSeq = collect(r, c.seq, func(at int64, vals []unicache.Value) {
		a, _ := vals[0].AsInt()
		b, _ := vals[1].AsInt()
		stamp, _ := vals[2].AsInt()
		c.matches.Add(ref.Match{First: a, Second: b})
		c.emit.add(r, stamp, at-stamp)
	})
	return c, nil
}

// rowsByID looks rows up by id in a stored stream.
func rowsByID(rows []genRow) func(int64) (genRow, bool) {
	return func(id int64) (genRow, bool) {
		if id < 1 || id > int64(len(rows)) {
			return genRow{}, false
		}
		return rows[id-1], true
	}
}

func (c *cepOpen) close() { c.e.Close() }

func (c *cepOpen) measure(r *run) error {
	defer c.close()
	ins := r.op("insert")
	interval := int64(cepTickMS) * int64(time.Millisecond)
	nb := cepBatches(r.seconds)
	start := now() + int64(10*time.Millisecond)
	r.window(start + int64(warmup))
	if r.tr != nil {
		r.tr.zeroCounters()
	}
	// The pattern check needs every row's commit time: one per batch.
	c.tapA.record(nb)
	c.tapB.record(nb)
	depth := r.sampleDepths(c.e)
	use := r.watchUsage()

	// One generator goroutine, open loop: every tick, one batch into B and
	// then one into A, both due at the tick. (A after B lets the pattern's
	// watermark pass B's rows, which close its matches, within the tick.)
	// A late generator sends at once; its lateness is part of the commit
	// latency, which runs from the due time, but not of the delivery and
	// emission latencies, which run from the stamp taken as each batch is
	// sent.
	var ack lat
	var late hist
	var events done
	sent := [2]int64{}
	topics := [2]string{"A", "B"}
	order := [2]int{1, 0}
	var batchSizes []int
	for i := 0; i < 2*nb; i++ {
		t := order[i%2]
		due := start + int64(i/2)*interval
		sleepUntil(due)
		t0 := now()
		late.add(t0 - due)
		batch := batchRows(cepBatch)
		for j, row := range batch {
			c.gen[t].row(sent[t]+int64(j)+1).fill(row, t0)
		}
		// Rows become checkable before they can be delivered.
		c.sent[t].Store(sent[t] + int64(cepBatch))
		ins.attempted.Add(1)
		err := r.traced(spInsertBatch, func() error { return c.e.InsertBatch(topics[t], batch) })
		if err != nil {
			ins.failed.Add(1)
			r.fail("insert into %s: %v", topics[t], err)
		}
		sent[t] += int64(cepBatch)
		acked := now()
		ack.add(r, t0, acked-due)
		events.add(r, acked, int64(cepBatch))
		batchSizes = append(batchSizes, cepBatch)
	}
	r.addGenLate(&late)
	depthStats := depth.stop()

	// Drain: the control row makes the counting automaton dump its
	// tallies; a Timer tick lifts the pattern's watermark past the last
	// rows so every pending match completes.
	ctl := r.op("insert.control")
	ctl.attempted.Add(1)
	if err := c.e.InsertBatch("Ctl", [][]unicache.Value{genRow{key: "end", id: 1}.values(now())}); err != nil {
		ctl.failed.Add(1)
		r.fail("insert into Ctl: %v", err)
	}
	if err := c.e.Cache().TickTimer(); err != nil {
		r.fail("timer tick: %v", err)
	}
	deadline := time.Now().Add(20 * time.Second)
	if !unicache.WaitIdle(c.e, 20*time.Second) {
		r.fail("automata did not go idle after the run")
	}
	c.tapA.wait(sent[0], deadline)
	c.tapB.wait(sent[1], deadline)
	c.tapCtl.wait(1, deadline)
	c.outCount.waitFor(deadline, func(got []output) bool {
		return len(got) > 0 && len(got[len(got)-1].vals) == 2
	})
	if r.tr != nil {
		r.activations(c.e, sent[0]+sent[1]+1)
	}
	for _, w := range c.watches {
		w.Close()
	}
	for _, a := range []unicache.Automaton{c.count, c.agg, c.seq} {
		a.Close()
	}
	<-c.outCount.done
	<-c.outAgg.done
	<-c.outSeq.done

	c.checkOutputs(r, sent)
	r.resourceMetrics(use, events)
	r.unboundedMetric("ingest_events_per_s", "events/s", r.rate(events), int(events.total()))
	r.latencyMetrics("commit_ack", ack, true)
	r.latencyMetrics("delivery", merge(c.tapA.lat, c.tapB.lat), false)
	r.latencyMetrics("emit", c.emit, false)
	if r.tr != nil {
		depthStats.report(r)
		r.replay = replayInputs{
			trace:    c.trace(),
			rows:     func(ev ref.Event) genRow { return c.gen[topicIndex(ev.Topic)].row(ev.ID) },
			batches:  batchSizes,
			programs: []string{countProgram, aggProgram, seqProgram},
		}
	}
	return nil
}

// trace is what the A and B taps recorded.
func (c *cepOpen) trace() []ref.Event {
	return append(c.tapA.events(func(id int64) string { return c.gen[0].row(id).key }),
		c.tapB.events(func(id int64) string { return c.gen[1].row(id).key })...)
}

func topicIndex(topic string) int {
	if topic == "B" {
		return 1
	}
	return 0
}

// checkOutputs verifies the three automata against the reference
// computations.
func (c *cepOpen) checkOutputs(r *run, sent [2]int64) {
	// Counting behaviour: one dump equal to the generator's tallies.
	var keys []string
	for id := int64(1); id <= sent[0]; id++ {
		keys = append(keys, c.gen[0].row(id).key)
	}
	want := ref.Tally(keys)
	got := map[string]int64{}
	var total int64 = -1
	for _, o := range c.outCount.got {
		tag, _ := o.vals[0].AsStr()
		switch {
		case tag == "count" && len(o.vals) == 3:
			k, _ := o.vals[1].AsStr()
			n, _ := o.vals[2].AsInt()
			got[k] = n
		case tag == "total" && len(o.vals) == 2:
			total, _ = o.vals[1].AsInt()
		default:
			r.fail("counting behaviour: unexpected output %v", o.vals)
		}
	}
	if total != sent[0] {
		r.fail("counting behaviour: total %d, want %d", total, sent[0])
	}
	if len(got) != len(want) {
		r.fail("counting behaviour: %d keys, want %d", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			r.fail("counting behaviour: key %s counted %d, want %d", k, got[k], n)
		}
	}

	// Windowed aggregate: the last output covers the last rows of B.
	var vals []int64
	for id := int64(1); id <= sent[1]; id++ {
		vals = append(vals, c.gen[1].row(id).v)
	}
	wantW := ref.LastN(vals, cepWindowRows)
	if last := c.lastAgg; len(last) != 3 {
		r.fail("windowed aggregate: final output %v", last)
	} else {
		sum, _ := last[0].AsInt()
		size, _ := last[1].AsInt()
		avg, _ := last[2].AsReal()
		if sum != wantW.Sum || int(size) != wantW.Size || avg != wantW.Avg {
			r.fail("windowed aggregate: final (%d, %d, %v), want %+v", sum, size, avg, wantW)
		}
	}

	// Pattern: the outputs equal the reference scan over the trace the
	// watch taps recorded, compared as digests of the two multisets.
	if c.tapA.recorded != sent[0] || c.tapB.recorded != sent[1] {
		r.fail("pattern: the taps recorded %d and %d rows of %d and %d", c.tapA.recorded, c.tapB.recorded, sent[0], sent[1])
		return
	}
	wantM := ref.SeqNext(c.trace(), "A", "B", cepWithinMS*int64(time.Millisecond))
	if want := ref.DigestOf(wantM); c.matches != want {
		r.fail("pattern: %d outputs, the reference scan gives %d, and the two differ", c.matches.N, want.N)
	}
}
