package main

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// base anchors the benchmark's monotonic clock; generator stamps and
// every latency are nanoseconds since base.
var base = time.Now()

func now() int64 { return int64(time.Since(base)) }

// sleepUntil parks until the monotonic clock reaches t.
func sleepUntil(t int64) {
	if d := t - now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// Phase lengths around the measured window: a warm-up before it, and a
// tail after it during which load continues so the last measured rows
// drain at steady state rather than into an idle engine.
const (
	warmup = 1 * time.Second
	tail   = 300 * time.Millisecond
)

// run is one benchmark invocation's state.
type run struct {
	workload string
	seed     int64
	seconds  int
	outDir   string
	tr       *tracer // nil unless tracing

	// ws and we bound the measured window on the benchmark clock.
	ws, we int64

	ops map[string]*opCounter

	mu   sync.Mutex
	errs []string
	// setups are the set-up repetitions' times (s), in order, and
	// setupSteal the steal share around each group of them.
	setups, setupSteal []float64
	e2e                []metric
	// steal is the share of the machine's CPU time the hypervisor stole
	// during the window (-1 if unknown): how busy the host's other guests
	// kept this guest's cores.
	steal float64
	// sliceSteal is that share in each slice of the window, and calm
	// marks the slices the per-slice statistics are taken over (see
	// calmSlices).
	sliceSteal []float64
	calm       []bool
	// unbounded are end-to-end metrics reported in the run report but
	// not among the bounded metrics of the result line: the delivery and
	// emission latencies, the p99 latencies, the throughputs and
	// durable-rw's query latency (see README.md, "Steadiness").
	unbounded []metric
	// layer collects the per-layer metrics of a traced run.
	layer []metric

	// replay holds the run's recorded inputs for the per-layer replays.
	replay replayInputs
	// genLate collects generator lateness: due-to-start for open-loop
	// generators, return-to-next-call for closed-loop ones.
	genLate hist
}

type opCounter struct{ attempted, failed atomic.Int64 }

// metric is one reported measurement, with the number of samples behind
// it (1 for a ratio of totals).
type metric struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
}

func newRun(workload string, seed int64, seconds int, trace bool, out string) (*run, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	r := &run{workload: workload, seed: seed, seconds: seconds, outDir: out, ops: map[string]*opCounter{}}
	if trace {
		r.tr = newTracer()
	}
	return r, nil
}

// rng returns a generator for one named input stream of the run: the
// same seed and name always give the same sequence.
func (r *run) rng(stream string) *rand.Rand {
	h := int64(1469598103934665603)
	for _, c := range stream {
		h = (h ^ int64(c)) * 1099511628211
	}
	return rand.New(rand.NewSource(r.seed*7919 + h))
}

// op registers an operation kind; call before the measured phase.
func (r *run) op(kind string) *opCounter {
	if o, ok := r.ops[kind]; ok {
		return o
	}
	o := &opCounter{}
	r.ops[kind] = o
	return o
}

// resetSetup clears what a discarded set-up repetition registered.
func (r *run) resetSetup() {
	r.ops = map[string]*opCounter{}
	r.replay = replayInputs{}
	if r.tr != nil {
		r.tr.reset()
	}
}

// fail records a correctness problem (the first few of each run are
// kept verbatim).
func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.errs) < 20 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func (r *run) problems() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.errs...)
}

// addGenLate merges one generator's lateness record.
func (r *run) addGenLate(l *hist) {
	r.mu.Lock()
	r.genLate.merge(l)
	r.mu.Unlock()
}

func (r *run) metric(name, unit string, v float64, samples int) {
	r.e2e = append(r.e2e, metric{Name: name, Unit: unit, Value: v, Samples: samples})
}

func (r *run) unboundedMetric(name, unit string, v float64, samples int) {
	r.unbounded = append(r.unbounded, metric{Name: name, Unit: unit, Value: v, Samples: samples})
}

func (r *run) layerMetric(name, unit string, v float64, samples int) {
	r.layer = append(r.layer, metric{Name: name, Unit: unit, Value: v, Samples: samples})
}

// sliceLen is the length of the slices the measured window is cut into;
// per-slice statistics are reported as their median over the window's
// calm slices (see calmSlices).
const sliceLen = 500 * time.Millisecond

// slices is how many slices the window holds.
func (r *run) slices() int { return int(time.Duration(r.seconds) * time.Second / sliceLen) }

// window sets the measured window to start at ws.
func (r *run) window(ws int64) {
	r.ws = ws
	r.we = ws + int64(r.seconds)*int64(time.Second)
}

// slice returns the slice of the measured window that t falls in, or -1
// outside the window.
func (r *run) slice(t int64) int {
	if t < r.ws || t >= r.we {
		return -1
	}
	return int((t - r.ws) / int64(sliceLen))
}

func (r *run) reportPath() string {
	return filepath.Join(r.outDir, fmt.Sprintf("report-%s-seed%d-trace%d.json", r.workload, r.seed, boolInt(r.tr != nil)))
}

// tracePath is where a traced run writes its spans: one file per
// workload, holding the latest traced run's, so repeated runs do not
// fill the disk.
func (r *run) tracePath() string {
	return filepath.Join(r.outDir, fmt.Sprintf("trace-%s.jsonl", r.workload))
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// --- percentiles ---

// samples is a single-writer sample buffer, for the few short series a
// traced run keeps (queue depths, fsync times).
type samples []int64

func (s *samples) add(v int64) { *s = append(*s, v) }

// hist is a log-linear histogram of non-negative values (ns): exact
// below 128, then 64 buckets to each power of two, so a bucket is under
// 1.6 % of its values wide. Its size is fixed, so a latency record does
// not grow with the length of the run.
type hist struct {
	n      int64
	counts [histBuckets]uint32
}

const (
	histSub     = 6  // log2 of the buckets per power of two
	histMaxBits = 40 // values are clamped below 2^40 ns (about 18 min)
	histBuckets = (histMaxBits - histSub + 1) << histSub
)

func histBucket(v int64) int {
	v = min(max(v, 0), 1<<histMaxBits-1)
	if v < 2<<histSub {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - histSub - 1
	return e<<histSub + int(v>>e)
}

// histRange is bucket b's lowest value and width.
func histRange(b int) (lo, width int64) {
	if b < 2<<histSub {
		return int64(b), 1
	}
	e := b>>histSub - 1
	return int64(b-e<<histSub) << e, 1 << e
}

func (h *hist) add(v int64) {
	h.counts[histBucket(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the p-quantile (0..1) by nearest rank, placed inside
// its bucket by its rank among the bucket's values.
func (h *hist) quantile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := max(int64(math.Ceil(p*float64(h.n))), 1)
	var before int64
	for b, c := range h.counts {
		if before+int64(c) >= rank {
			lo, width := histRange(b)
			return float64(lo) + float64(width)*(float64(rank-before)-0.5)/float64(c)
		}
		before += int64(c)
	}
	return 0
}

// lat is a single-writer latency record (ns) kept in slices of the
// measured window, by the time the measured operation began, one
// histogram per slice. A percentile is reported as the median over the
// slices of each slice's percentile, so a slice disturbed by something
// outside the program (a neighbour's burst, a late timer) moves it
// little.
type lat []*hist

// add records ns for an operation that began at t, if t is inside the
// window.
func (l *lat) add(r *run, t, ns int64) {
	i := r.slice(t)
	if i < 0 {
		return
	}
	for len(*l) <= i {
		*l = append(*l, nil)
	}
	if (*l)[i] == nil {
		(*l)[i] = new(hist)
	}
	(*l)[i].add(ns)
}

// merge combines latency records slice by slice.
func merge(ls ...lat) lat {
	var out lat
	for _, l := range ls {
		for i, h := range l {
			for len(out) <= i {
				out = append(out, new(hist))
			}
			if h != nil {
				out[i].merge(h)
			}
		}
	}
	return out
}

func (l lat) count() int {
	n := 0
	for _, h := range l {
		if h != nil {
			n += int(h.n)
		}
	}
	return n
}

// done counts completed work in each slice of the window, by completion
// time, with the first and last completion seen in the slice.
type done []doneSlice

type doneSlice struct {
	n, nFirst   int64 // all completed units; those of the first completion
	first, last int64 // benchmark-clock times of the first and last completion
}

// add records n units completed at t, if t is in the window.
func (d *done) add(r *run, t, n int64) {
	i := r.slice(t)
	if i < 0 {
		return
	}
	for len(*d) <= i {
		*d = append(*d, doneSlice{})
	}
	s := &(*d)[i]
	if s.n == 0 {
		s.first, s.nFirst = t, n
	}
	s.last = t
	s.n += n
}

func (d done) total() int64 {
	var n int64
	for _, s := range d {
		n += s.n
	}
	return n
}

// at is slice i's completed units (0 if nothing completed there).
func (d done) at(i int) int64 {
	if i < len(d) {
		return d[i].n
	}
	return 0
}

// calmMargin is how much larger a share of the machine's CPU time the
// hypervisor may have stolen in an interval than in the calmest one for
// the interval to count as calm.
const calmMargin = 0.02

// calmMask marks the calm intervals among intervals whose steal shares
// are given: those within calmMargin of the calmest, and at least the
// calmest eighth (ties included). Wall-clock times on a shared host
// follow how much CPU time the host's other guests take, which changes
// over seconds; a change to the program moves every interval, calm or
// not, so statistics taken over the calm intervals keep the program's
// share and drop most of the neighbours'. If the steal could not be read
// (known false), every interval counts.
func calmMask(steal []float64, known bool) []bool {
	mask := make([]bool, len(steal))
	if len(steal) == 0 {
		return mask
	}
	s := append([]float64(nil), steal...)
	sort.Float64s(s)
	cut := max(s[0]+calmMargin, s[(len(s)+7)/8-1])
	for i, v := range steal {
		mask[i] = !known || v <= cut
	}
	return mask
}

// stealShare is the share of the machine's CPU time stolen between two
// reads of cpuTicks, and whether it could be read.
func stealShare(steal0, all0, steal1, all1 int64) (float64, bool) {
	if all1 <= all0 {
		return 0, false
	}
	return float64(steal1-steal0) / float64(all1-all0), true
}

// calmSlices waits for the usage watch to end and marks the window's
// calm slices (see calmMask), which the per-slice statistics are taken
// over.
func (r *run) calmSlices(u *usageWatch) {
	<-u.done
	n := r.slices()
	r.sliceSteal = make([]float64, n)
	known := true
	for i := 0; i < n; i++ {
		var ok bool
		r.sliceSteal[i], ok = stealShare(u.at[i].stealTicks, u.at[i].allTicks, u.at[i+1].stealTicks, u.at[i+1].allTicks)
		known = known && ok
	}
	r.calm = calmMask(r.sliceSteal, known)
}

// overCalm is the median of f over the window's calm slices, skipping
// those for which f has no value.
func (r *run) overCalm(f func(i int) (float64, bool)) float64 {
	var per []float64
	for i, calm := range r.calm {
		if v, ok := f(i); calm && ok {
			per = append(per, v)
		}
	}
	return median(per)
}

// rate is the median over the window's calm slices of the completion
// rate: the units completed after a slice's first completion, over the
// time from its first completion to its last (0 if fewer than two).
func (r *run) rate(d done) float64 {
	return r.overCalm(func(i int) (float64, bool) {
		if i < len(d) && d[i].last > d[i].first {
			return float64(d[i].n-d[i].nFirst) / time.Duration(d[i].last-d[i].first).Seconds(), true
		}
		return 0, true
	})
}

// pct is the median over the window's calm slices of each slice's
// p-quantile.
func (r *run) pct(l lat, p float64) float64 {
	return r.overCalm(func(i int) (float64, bool) {
		if i < len(l) && l[i] != nil && l[i].n > 0 {
			return l[i].quantile(p), true
		}
		return 0, false
	})
}

// pct returns the p-quantile (0..1) of samples by nearest rank, and the
// sample count.
func pct(samples []int64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(s[i])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// latencyMetrics reports the p50 (bounded or not) and the unbounded p99
// of samples in microseconds, recording a problem if there are none.
// Call it after resourceMetrics, which marks the calm slices.
func (r *run) latencyMetrics(prefix string, l lat, bounded bool) {
	n := l.count()
	if n == 0 {
		r.fail("%s: no samples in the measured window", prefix)
	}
	p50 := r.unboundedMetric
	if bounded {
		p50 = r.metric
	}
	p50(prefix+"_p50_us", "us", r.pct(l, 0.50)/1e3, n)
	r.unboundedMetric(prefix+"_p99_us", "us", r.pct(l, 0.99)/1e3, n)
}

// --- process resources ---

// usage is a snapshot of the process's CPU time, allocations and GC
// state.
type usage struct {
	cpuNS      int64
	allocs     uint64
	allocBytes uint64
	gcCycles   uint64
	pauses     *metrics.Float64Histogram
	maxRSS     int64 // KiB
	// stealTicks and allTicks are the machine's CPU time stolen by the
	// hypervisor and its whole CPU time, from /proc/stat (0 where that
	// cannot be read).
	stealTicks, allTicks int64
}

var usageSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/sched/pauses/total/gc:seconds"},
}

func takeUsage() usage {
	steal, all := cpuTicks()
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := make([]metrics.Sample, len(usageSamples))
	copy(s, usageSamples)
	metrics.Read(s)
	return usage{
		cpuNS:      ru.Utime.Nano() + ru.Stime.Nano(),
		allocs:     s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		pauses:     s[3].Value.Float64Histogram(),
		maxRSS:     ru.Maxrss, // Linux reports KiB
		stealTicks: steal,
		allTicks:   all,
	}
}

// cpuTicks reads the machine-wide CPU time counters of /proc/stat: the
// ticks stolen by the hypervisor (other guests running on this guest's
// cores) and all ticks.
func cpuTicks() (steal, all int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:9] { // user nice system idle iowait irq softirq steal
		n, _ := strconv.ParseInt(v, 10, 64)
		all += n
		if i == 7 {
			steal = n
		}
	}
	return steal, all
}

// usageWatch snapshots process usage at every slice boundary of the
// window.
type usageWatch struct {
	at   []usage // at[i] is taken at the start of slice i; the last at the end
	done chan struct{}
}

func (r *run) watchUsage() *usageWatch {
	u := &usageWatch{done: make(chan struct{})}
	go func() {
		defer close(u.done)
		for i := 0; i <= r.slices(); i++ {
			sleepUntil(r.ws + int64(i)*int64(sliceLen))
			u.at = append(u.at, takeUsage())
		}
	}()
	return u
}

// resourceMetrics reports the window's CPU and allocation cost per
// committed event and the peak resident set at the window's end (before
// the checks build their reference answers), and — on a traced run —
// the runtime layer's numbers.
// CPU and allocations per event are, like the percentiles, medians over
// the calm slices of each slice's ratio. It marks the calm slices, so
// call it before the other per-slice statistics.
func (r *run) resourceMetrics(u *usageWatch, slices done) {
	r.calmSlices(u)
	events := slices.total()
	if events <= 0 {
		r.fail("no events committed in the measured window")
		events = 1
	}
	perEvent := func(f func(u usage) float64) float64 {
		return r.overCalm(func(i int) (float64, bool) {
			return (f(u.at[i+1]) - f(u.at[i])) / float64(max(slices.at(i), 1)), true
		})
	}
	start, end := u.at[0], u.at[len(u.at)-1]
	ev := float64(events)
	r.metric("cpu_us_per_event", "us", perEvent(func(u usage) float64 { return float64(u.cpuNS) / 1e3 }), int(events))
	r.metric("allocs_per_event", "allocs", perEvent(func(u usage) float64 { return float64(u.allocs) }), int(events))
	r.metric("peak_rss_mb", "MB", float64(end.maxRSS)/1024, 1)
	r.steal = -1
	if v, ok := stealShare(start.stealTicks, start.allTicks, end.stealTicks, end.allTicks); ok {
		r.steal = v
	}
	if r.tr == nil {
		return
	}
	p99, n := histDeltaQuantile(start.pauses, end.pauses, 0.99)
	r.layerMetric("runtime.gc_pause_p99_us", "us", p99*1e6, n)
	r.layerMetric("runtime.gc_cycles_per_mevent", "count", float64(end.gcCycles-start.gcCycles)/ev*1e6, int(events))
	r.layerMetric("runtime.alloc_bytes_per_event", "bytes", float64(end.allocBytes-start.allocBytes)/ev, int(events))
}

// histDeltaQuantile returns the p-quantile of the observations a runtime
// histogram gained between two reads (the upper bound of the bucket that
// holds it), and how many there were.
func histDeltaQuantile(a, b *metrics.Float64Histogram, p float64) (float64, int) {
	var total uint64
	counts := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		counts[i] = b.Counts[i] - a.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0, 0
	}
	rank := uint64(math.Ceil(p * float64(total)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			hi := b.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.Buckets[i]
			}
			return hi, int(total)
		}
	}
	return 0, int(total)
}
