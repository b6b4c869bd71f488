// Command perfbench times bdrmapit's production path — inference over
// files with its artifact writers, continuous-ingest sessions, and the
// bdrmapitd serving daemon — on two workloads, and with --trace 1
// replays the same path with a span around each layer's exported entry
// point. Run it through run.sh, which builds it from the checkout:
//
//	bash perfbench/run.sh --workload infer-wide --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it records
// the environment, the correctness gates, every measured sample, and
// the simulator's substrate timings.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/serve"
)

// workload names the dataset infer runs over and what set-up times.
// Every workload runs every stage of the production loop, so every run
// reports every end-to-end metric; BENCHMARK.json says why each exists.
type workload struct {
	name, data string
	// bootstrap: set-up is the ingest bootstrap session; otherwise it
	// is the check of the dataset's fingerprint.
	bootstrap bool
}

var workloads = []workload{
	{"infer-wide", "wide", false},
	{"ingest-dense", "dense", true},
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, " | ")
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		if err := childMain(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	var (
		name    = flag.String("workload", "", "workload: infer-wide or ingest-dense")
		seed    = flag.Int64("seed", 1, "seed for the sampled inputs (ingest batches, request stream)")
		seconds = flag.Float64("seconds", 10, "length of the serve load, in all")
		trace   = flag.Int("trace", 0, "1: traced replay reporting per-layer metrics")
		root    = flag.String("root", ".", "checkout root; caches and scratch live under .bench_build/")
		bin     = flag.String("bin", "", "directory holding the built perfbench and bdrmapitd binaries")
		scale   = flag.String("scale", "full", "dataset scale: full, or small for tests")
	)
	flag.Parse()
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *bin == "" || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --bin DIR --workload NAME [--seed N] [--seconds S] [--trace 0|1]")
		os.Exit(2)
	}
	r, err := newRunner(*root, *bin, *scale, *wl, *seed, *seconds)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	defer os.RemoveAll(r.work)
	out, err := r.run(context.Background(), *trace == 1)
	if err != nil {
		logf("%v", err)
		os.RemoveAll(r.work)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, out, r.record); err != nil {
		logf("%v", err)
		os.RemoveAll(r.work)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's contract line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printResult(w io.Writer, res *result, record map[string]any) error {
	rec, err := json.Marshal(map[string]any{"perfbench": record})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", rec, line)
	return err
}

// runner carries one benchmark run.
type runner struct {
	bin, scale  string
	build       string // buildID of the binaries under test
	cache, work string
	wl          workload
	seed        int64
	seconds     float64
	workers     int
	// ds and der are the dataset infer runs over and its references;
	// ing and ingDer the dense dataset every ingest stage runs on, with
	// the run's batches (the same dataset on ingest-dense); serveDer
	// holds wide's references, whose snapshots the daemon serves.
	ds, ing               *dataset
	der, ingDer, serveDer *derived
	batches               []string
	// exp and swap are the two serve snapshots, opened for verifying
	// answers, and their files in swap order; addrs is the population
	// the load draws from.
	exp   map[uint64]*serve.Snapshot
	swap  []swapSnap
	addrs []netip.Addr

	// e2eUnits and layerUnits are BENCHMARK.json's metrics, by name.
	e2eUnits, layerUnits map[string]string

	// afterOp, when set, runs on an operation's output directory
	// before it is checked; tests use it to corrupt an artifact.
	afterOp func(dir string)
	// tamper, when set, rewrites each served answer before it is
	// verified; tests use it to prove a wrong answer is a failure.
	tamper func([]byte) []byte

	attempted, failed int
	gates             map[string]bool
	samples           map[string][]float64
	record            map[string]any
}

func newRunner(root, bin, scale string, wl workload, seed int64, seconds float64) (*runner, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if bin, err = filepath.Abs(bin); err != nil {
		return nil, err
	}
	build, err := buildID(bin)
	if err != nil {
		return nil, err
	}
	base := filepath.Join(root, ".bench_build", "perfbench")
	if err := os.MkdirAll(filepath.Join(base, "runs"), 0o755); err != nil {
		return nil, err
	}
	e2e, layer, err := loadMetricNames(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(filepath.Join(base, "runs"), wl.name+"-")
	if err != nil {
		return nil, err
	}
	return &runner{
		e2eUnits: e2e, layerUnits: layer,
		bin: bin, scale: scale, build: build,
		cache: filepath.Join(base, "data"), work: work,
		wl: wl, seed: seed, seconds: seconds,
		workers: runtime.GOMAXPROCS(0),
		gates:   map[string]bool{}, samples: map[string][]float64{}, record: map[string]any{},
	}, nil
}

// loadMetricNames reads the metric names and units BENCHMARK.json
// promises: every end-to-end metric untraced, every per-layer metric
// traced.
func loadMetricNames(path string) (e2e, layer map[string]string, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer, nil
}

// tally counts operations against a correctness gate; any failure
// fails the gate for the whole run.
func (r *runner) tally(name string, attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
	ok, seen := r.gates[name]
	r.gates[name] = (ok || !seen) && failed == 0
}

// gate records one checked operation; a failed check fails it.
func (r *runner) gate(name string, err error) {
	if err != nil {
		logf("gate %s failed: %v", name, err)
		r.tally(name, 1, 1)
		return
	}
	r.tally(name, 1, 0)
}

func (r *runner) sample(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

// opDir returns a fresh scratch directory for one operation.
func (r *runner) opDir(prefix string) (string, error) {
	return os.MkdirTemp(r.work, prefix+"-")
}

// run executes the workload and assembles the contract line.
func (r *runner) run(ctx context.Context, traced bool) (*result, error) {
	runStart, steal0 := time.Now(), readSteal()
	if err := r.prepare(ctx); err != nil {
		return nil, err
	}
	var (
		res *result
		err error
	)
	if traced {
		res, err = r.runTraced(ctx)
	} else {
		res, err = r.runTimed(ctx)
	}
	if err != nil {
		return nil, err
	}
	r.record["gates"] = r.gates
	r.record["samples"] = r.samples
	r.record["attempted"], r.record["failed"] = r.attempted, r.failed
	r.record["run_s"] = time.Since(runStart).Seconds()
	// Share of the host's CPU time the hypervisor gave to other guests
	// during the run: the noise floor of every timing.
	r.record["host_steal_frac"] = readSteal().stolenSince(steal0)
	res.Attempted, res.Failed = r.attempted, r.failed
	res.Correct = r.failed == 0
	return res, nil
}

// prepare opens (generating if needed) and checks the datasets, and
// loads or computes the references the run is checked against. Infer
// runs over the workload's dataset, ingest always over dense, and the
// daemon always serves wide's snapshots.
func (r *runner) prepare(ctx context.Context) error {
	open := func(name string) (*dataset, error) {
		ds, err := openDataset(r.cache, name, r.scale)
		if err != nil {
			return nil, err
		}
		if !r.wl.bootstrap && name == r.wl.data {
			return ds, nil // infer-wide times this check as its set-up
		}
		return ds, ds.verify()
	}
	wide, err := open("wide")
	if err != nil {
		return err
	}
	if r.ing, err = open("dense"); err != nil {
		return err
	}
	if r.serveDer, err = r.derive(ctx, wide, nil); err != nil {
		return err
	}
	r.batches = chooseBatches(r.ing.man.Batches, 4, r.seed)
	if r.ingDer, err = r.derive(ctx, r.ing, r.batches); err != nil {
		return err
	}
	r.ds, r.der = wide, r.serveDer
	if r.wl.data == "dense" {
		r.ds, r.der = r.ing, r.ingDer
	}
	r.record["substrate"] = map[string]any{wide.man.Name: wide.man.Substrate, r.ing.man.Name: r.ing.man.Substrate}
	if r.exp, r.swap, err = expected(r.serveDer); err != nil {
		return err
	}
	r.addrs = population(r.exp[r.swap[0].fp], r.seed)
	r.record["env"] = r.env()
	return nil
}

// cpuTicks is the aggregate line of /proc/stat: stolen and total ticks.
type cpuTicks struct{ steal, total uint64 }

// stolenSince is the share of the host's CPU time stolen since t0.
func (t cpuTicks) stolenSince(t0 cpuTicks) float64 {
	if t.total <= t0.total {
		return 0
	}
	return float64(t.steal-t0.steal) / float64(t.total-t0.total)
}

func readSteal() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	var t cpuTicks
	fields := strings.Fields(strings.SplitN(string(data), "\n", 2)[0])
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		t.total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			t.steal = v
		}
	}
	return t
}

// env records where and how the run happened.
func (r *runner) env() map[string]any {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				cpu = strings.TrimSpace(line[strings.Index(line, ":")+1:])
				break
			}
		}
	}
	return map[string]any{
		"workload": r.wl.name, "seed": r.seed, "seconds": r.seconds, "scale": r.scale,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(), "workers": r.workers,
		"go": runtime.Version(), "cpu": cpu, "build": r.build,
		"dataset": r.ds.man.Name, "vps": len(r.ds.man.VPs), "traces": r.ds.man.Traces,
		"ingest_dataset": r.ing.man.Name, "batches": r.batches, "serve_dataset": "wide",
	}
}

// chooseBatches picks k consecutive held-out batch files, starting at
// an offset the seed selects. Drawing from a few fixed windows, rather
// than any k-subset, keeps the number of distinct from-scratch
// references small enough to cache.
func chooseBatches(all []string, k int, seed int64) []string {
	if k >= len(all) {
		return append([]string(nil), all...)
	}
	off := int(uint64(seed) % uint64(len(all)-k+1))
	return append([]string(nil), all[off:off+k]...)
}
