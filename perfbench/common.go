package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"unicache"
	"unicache/internal/types"
	"unicache/perfbench/ref"
)

// Value and schema constructors of the engine's type layer.
var (
	intV      = types.Int
	strV      = types.Str
	newSchema = types.NewSchema
)

const (
	colInt     = types.ColInt
	colVarchar = types.ColVarchar
)

// Every workload's stream rows share one shape, so the per-layer replays
// can push any workload's recorded rows through any layer:
//
//	k varchar, g integer, v integer, id integer, stamp integer
//
// k is the correlation / primary key, g a small group number, v the value
// the aggregates sum, id the row's position in its generator's sequence
// (from 1) and stamp the benchmark-clock nanosecond the generator stamped
// the row with.
const (
	colK = iota
	colG
	colV
	colID
	colStamp
)

var rowCols = []unicache.Column{
	{Name: "k", Type: colVarchar},
	{Name: "g", Type: colInt},
	{Name: "v", Type: colInt},
	{Name: "id", Type: colInt},
	{Name: "stamp", Type: colInt},
}

// rowGen derives each row of one named input stream from the seed and
// the row's id alone, so a checker can regenerate any row from its id
// without the generator storing the stream.
type rowGen struct {
	salt uint64
	keys []string
	// cdf is the cumulative key distribution for skewed keys; nil means
	// uniform.
	cdf []float64
}

// rowGen returns stream's generator over keys (in the order of their
// rank), uniform or Zipf-skewed with exponent zipf > 0.
func (r *run) rowGen(stream string, keys []string, zipf float64) rowGen {
	g := rowGen{salt: uint64(r.rng(stream).Int63()), keys: keys}
	if zipf > 0 {
		var total float64
		g.cdf = make([]float64, len(keys))
		for i := range keys {
			total += 1 / math.Pow(float64(i+1), zipf)
			g.cdf[i] = total
		}
		for i := range g.cdf {
			g.cdf[i] /= total
		}
	}
	return g
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// key draws a key index from the stream's distribution.
func (g rowGen) key(h uint64) int {
	if g.cdf == nil {
		return int(h % uint64(len(g.keys)))
	}
	u := float64(h>>11) / (1 << 53)
	i := sort.SearchFloat64s(g.cdf, u)
	if i >= len(g.keys) {
		i = len(g.keys) - 1
	}
	return i
}

func (g rowGen) row(id int64) genRow {
	h1 := splitmix(g.salt ^ uint64(id))
	h2 := splitmix(h1)
	h3 := splitmix(h2)
	return genRow{key: g.keys[g.key(h1)], g: int64(h2 % 8), v: int64(h3 % 1000), id: id}
}

// upTo returns a row lookup for the ids 1..n.
func (g rowGen) upTo(n *atomic.Int64) func(int64) (genRow, bool) {
	return func(id int64) (genRow, bool) {
		if id < 1 || id > n.Load() {
			return genRow{}, false
		}
		return g.row(id), true
	}
}

// keyNames returns n key names with a prefix.
func keyNames(prefix string, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s%04d", prefix, i)
	}
	return keys
}

// genRow is a generated row before it is stamped.
type genRow struct {
	key  string
	g, v int64
	id   int64
}

func (g genRow) values(stamp int64) []unicache.Value {
	vals := make([]unicache.Value, len(rowCols))
	g.fill(vals, stamp)
	return vals
}

// fill writes the row, stamped, into vals (len(rowCols) long).
func (g genRow) fill(vals []unicache.Value, stamp int64) {
	vals[colK], vals[colG], vals[colV] = strV(g.key), intV(g.g), intV(g.v)
	vals[colID], vals[colStamp] = intV(g.id), intV(stamp)
}

// batchRows returns n rows backed by one array, so a generator makes
// two allocations per batch rather than one per row. Each row's capacity
// ends at its own last column, so no row can grow into the next.
func batchRows(n int) [][]unicache.Value {
	back := make([]unicache.Value, n*len(rowCols))
	rows := make([][]unicache.Value, n)
	for i := range rows {
		rows[i] = back[i*len(rowCols) : (i+1)*len(rowCols) : (i+1)*len(rowCols)]
	}
	return rows
}

func (g genRow) ref() ref.Row { return ref.Row{Key: g.key, G: g.g, V: g.v, ID: g.id} }

// streamSchema is an ephemeral stream table of the shared row shape.
func streamSchema(name string) *unicache.Schema {
	s, err := newSchema(name, false, -1, rowCols...)
	if err != nil {
		panic(err)
	}
	return s
}

// keyedSchema is a persistent table of the shared row shape keyed by k.
func keyedSchema(name string) *unicache.Schema {
	s, err := newSchema(name, true, colK, rowCols...)
	if err != nil {
		panic(err)
	}
	return s
}

// checkRow compares a delivered row with the generator's.
func checkRow(vals []unicache.Value, want genRow) error {
	if len(vals) != len(rowCols) {
		return fmt.Errorf("row has %d columns, want %d", len(vals), len(rowCols))
	}
	k, _ := vals[colK].AsStr()
	g, _ := vals[colG].AsInt()
	v, _ := vals[colV].AsInt()
	id, _ := vals[colID].AsInt()
	if k != want.key || g != want.g || v != want.v || id != want.id {
		return fmt.Errorf("row (%s,%d,%d,%d) differs from the generator's (%s,%d,%d,%d)",
			k, g, v, id, want.key, want.g, want.v, want.id)
	}
	return nil
}

// tap is a watch callback's state: it checks that a topic's rows arrive
// exactly once, in gap-free sequence order, with the generator's values,
// records the commit times the reference scans run over, and samples
// delivery latency. It runs on one goroutine (the tap's dispatcher, or
// the connection's read loop), so it needs no lock until it is read
// after the run.
type tap struct {
	r     *run
	topic string
	rows  func(id int64) (genRow, bool)
	// seq0 and id0 are the sequence number and row id before the tap's
	// first row: the i-th row delivered (from 0) must carry sequence
	// seq0+i+1 and id id0+i+1.
	seq0 uint64
	id0  int64

	// pos is how many rows the tap has delivered.
	pos int64
	// runs holds the commit timestamps of the first recorded rows, one
	// entry per run of rows committed at one instant (a batch commits at
	// one), up to keep entries; recorded counts the rows they cover.
	// Later rows are checked but not recorded, so the record is sized up
	// front and does not grow with the run.
	runs     []tsRun
	keep     int
	recorded int64
	lat      lat
	// seen and broken are read while the tap runs; the rest only after
	// wait returns.
	seen   atomic.Int64
	broken atomic.Bool
}

// tsRun is a run of delivered rows sharing one commit timestamp, from
// the row at position first (from 0).
type tsRun struct{ first, ts int64 }

func newTap(r *run, topic string, rows func(id int64) (genRow, bool)) *tap {
	return &tap{r: r, topic: topic, rows: rows}
}

// record makes the tap keep the commit timestamps of up to runs batches;
// call it before the tap's first row.
func (t *tap) record(runs int) {
	t.keep = runs
	t.runs = make([]tsRun, 0, runs)
}

func (t *tap) observe(ev *unicache.Event) {
	at := now()
	if t.broken.Load() {
		return
	}
	vals := ev.Tuple.Vals
	id, _ := vals[colID].AsInt()
	stamp, _ := vals[colStamp].AsInt()
	if ev.Topic != t.topic {
		t.breakf("delivered on topic %q", ev.Topic)
		return
	}
	n := t.pos
	if want := t.seq0 + uint64(n) + 1; ev.Tuple.Seq != want {
		t.breakf("sequence %d delivered where %d was due", ev.Tuple.Seq, want)
		return
	}
	want, ok := t.rows(id)
	if !ok || id != t.id0+n+1 {
		t.breakf("row id %d delivered where %d was due", id, t.id0+n+1)
		return
	}
	if err := checkRow(vals, want); err != nil {
		t.breakf("%v", err)
		return
	}
	if ts := int64(ev.Tuple.TS); t.recorded == n {
		if k := len(t.runs); k > 0 && t.runs[k-1].ts == ts {
			t.recorded++
		} else if k < t.keep {
			t.runs = append(t.runs, tsRun{first: n, ts: ts})
			t.recorded++
		}
	}
	t.pos++
	t.lat.add(t.r, stamp, at-stamp)
	if t.r.tr != nil {
		t.r.tr.instant(spWatchCB, at)
	}
	t.seen.Add(1)
}

func (t *tap) breakf(format string, args ...any) {
	t.broken.Store(true)
	t.r.fail("watch %s: "+format, append([]any{t.topic}, args...)...)
}

// events returns the rows the tap recorded as reference events.
func (t *tap) events(key func(id int64) string) []ref.Event {
	out := make([]ref.Event, 0, t.recorded)
	for i, run := range t.runs {
		end := t.recorded
		if i+1 < len(t.runs) {
			end = t.runs[i+1].first
		}
		for p := run.first; p < end; p++ {
			id := t.id0 + p + 1
			out = append(out, ref.Event{Topic: t.topic, TS: run.ts, Seq: t.seq0 + uint64(p) + 1, Key: key(id), ID: id})
		}
	}
	return out
}

// wait blocks until the tap has seen n rows, broke, or the deadline
// passed, recording a problem unless it saw exactly n. The tap's trace
// and samples may be read once its watch is closed.
func (t *tap) wait(n int64, deadline time.Time) {
	for {
		got := t.seen.Load()
		if t.broken.Load() {
			return
		}
		if got >= n || time.Now().After(deadline) {
			if got != n {
				t.r.fail("watch %s: saw %d rows, %d were committed", t.topic, got, n)
			}
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Events channel capacities of the automata the benchmark registers. A
// handle sheds its oldest notification when its channel is full, and the
// checks count every output, so each buffer holds over a second of its
// automaton's output while the collector is descheduled: patternBuffer
// the pattern's (up to 40 000 a second), outputBuffer everyone else's
// (under 2 000 a second). Register allocates the channel, so the sizes
// are part of setup_s: 2^16 slots are 1.5 MB.
var (
	patternBuffer = unicache.EventBuffer(1 << 16)
	outputBuffer  = unicache.EventBuffer(1 << 13)
)

// outputs drains one automaton's Events channel on its own goroutine
// until the channel closes.
type outputs struct {
	mu   sync.Mutex
	got  []output
	done chan struct{}
}

// output is one received send() notification and the benchmark-clock
// time it was received.
type output struct {
	at   int64
	vals []unicache.Value
}

// collect keeps every output, unless each is given: then each handles
// the output on the collecting goroutine and nothing is kept.
func collect(r *run, a unicache.Automaton, each func(at int64, vals []unicache.Value)) *outputs {
	o := &outputs{done: make(chan struct{})}
	go func() {
		defer close(o.done)
		for vals := range a.Events() {
			at := now()
			if r.tr != nil {
				r.tr.instant(spEmitCB, at)
			}
			if each != nil {
				each(at, vals)
				continue
			}
			o.mu.Lock()
			o.got = append(o.got, output{at: at, vals: vals})
			o.mu.Unlock()
		}
	}()
	return o
}

// waitFor polls until pred holds on the outputs received so far, or the
// deadline passes.
func (o *outputs) waitFor(deadline time.Time, pred func(got []output) bool) bool {
	for {
		o.mu.Lock()
		ok := pred(o.got)
		o.mu.Unlock()
		if ok {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// emitProgram sends the id and stamp of every modulus-th row of a
// stream: an automaton that does very little per event, whose outputs
// time the emission path.
func emitProgram(topic string, modulus int) string {
	return fmt.Sprintf(`subscribe t to %s;
behavior {
	if (t.id %% %d == 0) {
		send(t.id, t.stamp);
	}
}
`, topic, modulus)
}

// emitCheck follows an emit automaton's outputs. It runs on the
// collecting goroutine; read it after the collector is done.
type emitCheck struct {
	r       *run
	what    string
	modulus int64
	seen    map[int64]bool
	count   atomic.Int64
	bad     atomic.Bool
	lat     lat
}

func newEmitCheck(r *run, what string, modulus int64) *emitCheck {
	return &emitCheck{r: r, what: what, modulus: modulus, seen: make(map[int64]bool)}
}

func (c *emitCheck) observe(at int64, vals []unicache.Value) {
	if c.bad.Load() {
		return
	}
	if len(vals) != 2 {
		c.bad.Store(true)
		c.r.fail("%s: output has %d values, want 2", c.what, len(vals))
		return
	}
	id, _ := vals[0].AsInt()
	stamp, _ := vals[1].AsInt()
	if id%c.modulus != 0 || c.seen[id] {
		c.bad.Store(true)
		c.r.fail("%s: unexpected output id %d", c.what, id)
		return
	}
	c.seen[id] = true
	c.lat.add(c.r, stamp, at-stamp)
	c.count.Add(1)
}

// want is how many outputs rows first..last should give.
func (c *emitCheck) want(first, last int64) int64 {
	return last/c.modulus - (first-1)/c.modulus
}

// wait blocks until the expected outputs arrived or the deadline passed.
func (c *emitCheck) wait(first, last int64, deadline time.Time) {
	for c.count.Load() < c.want(first, last) && !c.bad.Load() && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
}

// finish checks, once the collector is done, that exactly the ids
// divisible by the modulus among first..last were sent, each once.
func (c *emitCheck) finish(first, last int64) {
	if c.bad.Load() {
		return
	}
	for id := range c.seen {
		if id < first || id > last {
			c.r.fail("%s: output for uncommitted row %d", c.what, id)
			return
		}
	}
	if got, want := int64(len(c.seen)), c.want(first, last); got != want {
		c.r.fail("%s: %d outputs, want %d", c.what, got, want)
	}
}
