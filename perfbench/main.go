// Command perfbench is the repository benchmark: it runs one workload
// through the public Engine façade, checks every output against the
// benchmark's own reference computations (package ref), and prints the
// workload's end-to-end metrics — or, with -trace 1, its per-layer
// metrics — as the last line of standard output.
//
//	go run . -workload cep-open -seed 1 -seconds 20 -trace 0
//
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workload is one named benchmark workload. setup builds a fresh engine
// and everything the measured phase needs; it is timed and repeated.
// measure runs the timed phase on the last environment setup built,
// checks the outputs and tears the environment down.
type workload struct {
	name  string
	setup func(r *run) (env, error)
}

// env is one set-up workload instance.
type env interface {
	// measure runs the measured phase, the drain and the checks.
	measure(r *run) error
	// close tears the instance down; it is also how discarded set-up
	// repetitions are disposed of.
	close()
}

var workloads = []workload{
	{name: "cep-open", setup: setupCEPOpen},
	{name: "remote-ingest", setup: setupRemoteIngest},
	{name: "durable-rw", setup: setupDurableRW},
}

// Each run builds its environment setupGroups × setupGroupReps times,
// reading the host's steal share around each group; setup_s is the
// median over the repetitions of the calm groups (see calmMask), and
// only the last instance is measured.
const (
	setupGroups    = 24
	setupGroupReps = 8
)

// settle is the pause before each set-up repetition: each one starts
// from a quiet process, as a real set-up does, rather than while the
// threads the last one woke are still spinning. Back to back, the
// repetitions ran faster but their median moved by up to half from run
// to run.
const settle = 10 * time.Millisecond

func main() {
	wl := flag.String("workload", "", "workload name: cep-open, remote-ingest or durable-rw")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for reports, traces and data")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *wl {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: -workload %s -seed N -seconds N -trace 0|1\n", names())
		os.Exit(2)
	}
	r, err := newRun(w.name, *seed, *seconds, *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := r.execute(w); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func names() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, "|")
}

// execute times the set-up repetitions, measures the last instance, and
// prints the report line and the result line.
func (r *run) execute(w *workload) error {
	var setups []float64
	var steal []float64
	known := true
	var e env
	for g := 0; g < setupGroups; g++ {
		s0, a0 := cpuTicks()
		for i := 0; i < setupGroupReps; i++ {
			if e != nil {
				e.close()
			}
			r.resetSetup()
			// Start each set-up from a collected heap whose free memory
			// went back to the system, so that no repetition pays for
			// the garbage of the one before and each touches fresh
			// memory, as a new process does, and from a quiet process.
			debug.FreeOSMemory()
			time.Sleep(settle)
			t0 := now()
			var err error
			e, err = w.setup(r)
			if err != nil {
				return fmt.Errorf("setup: %w", err)
			}
			setups = append(setups, float64(now()-t0)/1e9)
		}
		s1, a1 := cpuTicks()
		v, ok := stealShare(s0, a0, s1, a1)
		steal = append(steal, v)
		known = known && ok
	}
	var calm []float64
	for g, ok := range calmMask(steal, known) {
		if ok {
			calm = append(calm, setups[g*setupGroupReps:(g+1)*setupGroupReps]...)
		}
	}
	r.metric("setup_s", "s", median(calm), len(calm))
	r.setups, r.setupSteal = setups, steal
	if err := e.measure(r); err != nil {
		return err
	}
	if r.tr != nil {
		if err := r.layerReplays(); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		if err := r.tr.write(r.tracePath()); err != nil {
			return err
		}
	}
	return r.emit()
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the machine-readable per-run record, written to the output
// directory and printed (prefixed "report: ") before the result line.
type report struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Seconds   int       `json:"seconds"`
	SetupReps []float64 `json:"setup_s_reps"`
	// SetupSteal is the steal share around each group of setupGroupReps
	// repetitions.
	SetupSteal []float64           `json:"setup_steal"`
	Trace      bool                `json:"trace"`
	GoVersion  string              `json:"go_version"`
	NumCPU     int                 `json:"nproc"`
	Correct    bool                `json:"correct"`
	Problems   []string            `json:"problems,omitempty"`
	Ops        map[string]opReport `json:"ops"`
	EndToEnd   []metric            `json:"end_to_end"`
	Unbounded  []metric            `json:"unbounded"`
	Steal      float64             `json:"host_steal_share"`
	// SliceSteal is the steal share in each slice of the window, and
	// CalmSlices how many slices the per-slice statistics were taken over.
	SliceSteal []float64 `json:"slice_steal"`
	CalmSlices int       `json:"calm_slices"`
	PerLayer   []metric  `json:"per_layer,omitempty"`
	TraceFile  string    `json:"trace_file,omitempty"`
}

type opReport struct {
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
}

func (r *run) emit() error {
	rep := report{
		Workload: r.workload, Seed: r.seed, Seconds: r.seconds, SetupReps: r.setups, Trace: r.tr != nil,
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		Problems: r.problems(), Ops: map[string]opReport{},
		EndToEnd: r.e2e, Unbounded: r.unbounded, Steal: r.steal, PerLayer: r.layer,
		SliceSteal: r.sliceSteal, SetupSteal: r.setupSteal,
	}
	for _, c := range r.calm {
		if c {
			rep.CalmSlices++
		}
	}
	rep.Correct = len(rep.Problems) == 0
	res := result{Correct: rep.Correct, Metrics: map[string]resultValue{}}
	kinds := make([]string, 0, len(r.ops))
	for k := range r.ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		o := r.ops[k]
		a, f := o.attempted.Load(), o.failed.Load()
		rep.Ops[k] = opReport{Attempted: a, Failed: f}
		res.Attempted += a
		res.Failed += f
	}
	shown := r.e2e
	if r.tr != nil {
		shown = r.layer
		rep.TraceFile = r.tracePath()
	}
	for _, m := range shown {
		res.Metrics[m.Name] = resultValue{Value: m.Value, Unit: m.Unit}
	}
	repJSON, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	if err := os.WriteFile(r.reportPath(), append(repJSON, '\n'), 0o644); err != nil {
		return err
	}
	resJSON, err := json.Marshal(res)
	if err != nil {
		return err
	}
	for _, p := range rep.Problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	fmt.Printf("report: %s\n%s\n", repJSON, resJSON)
	return nil
}
