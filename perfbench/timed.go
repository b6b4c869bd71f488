package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/serve"
)

const (
	setupReps   = 3                      // set-ups per run, at least; setup_s is their median
	setupSpend  = 2 * time.Second        // cheap set-ups repeat until this is spent
	rounds      = 2                      // operations of each batch stage per run
	warmup      = 500                    // requests answered before the load is timed
	reloadEvery = 500 * time.Millisecond // hot-swap interval during load
)

// runTimed is the untraced run: set up, then rounds rounds of one
// serve segment, one infer and one ingest operation (in alternating
// order), and a last serve segment. The serve load, --seconds long in
// all, is cut into rounds+1 segments placed between the batch
// operations: on a shared host the speed drifts over tens of seconds,
// so each metric samples the whole run rather than one stretch of it.
func (r *runner) runTimed(ctx context.Context) (*result, error) {
	st, err := r.setup(ctx)
	if err != nil {
		return nil, err
	}
	defer st.close()
	if st.d, err = r.startServing(ctx, st.live); err != nil {
		return nil, err
	}
	if err := r.warm(ctx, st.d); err != nil {
		return nil, err
	}
	seg := time.Duration(r.seconds*float64(time.Second)) / (rounds + 1)
	var load serveLoad
	infer := func() error { return r.inferOnce(ctx) }
	ingest := func() error { return r.ingestOnce(ctx, st.store) }
	for i := 0; i <= rounds; i++ {
		if err := r.serveSegment(ctx, st.d, &load, i, seg); err != nil {
			return nil, err
		}
		if i == rounds {
			break
		}
		steps := []func() error{infer, ingest}
		if i%2 == 1 {
			steps[0], steps[1] = ingest, infer
		}
		for _, step := range steps {
			if err := step(); err != nil {
				return nil, err
			}
		}
	}
	r.finishServe(&load)
	res := &result{Metrics: map[string]metric{}}
	for name, unit := range r.e2eUnits {
		v := median(r.samples[name])
		if math.IsNaN(v) {
			return nil, fmt.Errorf("metric %s was not measured", name)
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	return res, nil
}

// stageState is what the stages run on.
type stageState struct {
	store string  // a bootstrapped ingest store, copied per operation
	d     *daemon // the serving daemon
	live  string  // the daemon's snapshot file
}

func (st *stageState) close() {
	if st.d != nil {
		st.d.stop()
		st.d = nil
	}
}

// setup runs the workload's set-up setupReps times, or more until
// setupSpend is spent, and records setup_s. infer-wide checks the
// dataset fingerprint; ingest-dense runs the bootstrap session over the
// base corpus.
func (r *runner) setup(ctx context.Context) (*stageState, error) {
	st := &stageState{store: r.ingDer.path(bootOut, "state"), live: filepath.Join(r.work, "live.snap")}
	began := time.Now()
	for i := 0; i < setupReps || time.Since(began) < setupSpend; i++ {
		start := time.Now()
		if !r.wl.bootstrap {
			if err := r.ds.verify(); err != nil {
				return nil, err
			}
		} else {
			dir, err := r.opDir("bootstrap")
			if err != nil {
				return nil, err
			}
			res, err := runChild(ctx, r.self(), bootstrapSpec(r.ing, dir, r.workers))
			if err != nil {
				return nil, err
			}
			r.sample("bootstrap_rss_mib", res.PeakRSSMiB)
			want, err := fileDigest(r.ingDer.path(bootOut, annFile))
			if err != nil {
				return nil, err
			}
			r.gate("bootstrap.annotations", digestIs(filepath.Join(dir, annFile), want))
			st.store = filepath.Join(dir, "state")
		}
		r.sample("setup_s", time.Since(start).Seconds())
	}
	return st, nil
}

// digestIs checks a file's FNV-64a digest.
func digestIs(path string, want uint64) error {
	got, err := fileDigest(path)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("%s: digest %016x, reference %016x", filepath.Base(path), got, want)
	}
	return nil
}

// inferOnce runs one cmd/bdrmapit-equivalent operation over full.jsonl
// and records its samples.
func (r *runner) inferOnce(ctx context.Context) error {
	dir, err := r.opDir("infer")
	if err != nil {
		return err
	}
	res, err := runChild(ctx, r.self(), opSpec{
		Op: "infer", Traces: []string{r.ds.path(fullFile)}, Ctx: r.ds.context(),
		Workers: r.workers, OutDir: dir,
	})
	if err != nil {
		return err
	}
	if r.afterOp != nil {
		r.afterOp(dir)
	}
	r.gate("infer.annotations", digestIs(filepath.Join(dir, annFile), r.der.InferDigest))
	r.sample("infer_s", res.Seconds)
	r.sample("infer_peak_rss_mib", res.PeakRSSMiB)
	return os.RemoveAll(dir)
}

// ingestOnce runs one ingest session, absorbing the run's batches of
// the dense dataset into a fresh copy of the bootstrapped store, and
// records its samples.
func (r *runner) ingestOnce(ctx context.Context, store string) error {
	var batches []string
	for _, b := range r.batches {
		batches = append(batches, r.ing.path(b))
	}
	dir, err := r.opDir("ingest")
	if err != nil {
		return err
	}
	state := filepath.Join(dir, "state")
	if err := copyDir(store, state); err != nil {
		return err
	}
	res, err := runChild(ctx, r.self(), opSpec{
		Op: "ingest", Traces: []string{r.ing.path(baseFile)}, Batches: batches, Ctx: r.ing.context(),
		Workers: r.workers, OutDir: dir, StateDir: state,
	})
	if err != nil {
		return err
	}
	err = digestIs(filepath.Join(dir, annFile), r.ingDer.IngestRefs[joinBatches(r.batches)])
	if err == nil && (res.Absorbed != len(batches) || res.Rejected != 0) {
		err = fmt.Errorf("absorbed %d of %d batches, %d rejected", res.Absorbed, len(batches), res.Rejected)
	}
	r.gate("ingest.annotations", err)
	r.sample("ingest_s", res.Seconds)
	r.sample("ingest_peak_rss_mib", res.PeakRSSMiB)
	return os.RemoveAll(dir)
}

// startServing publishes the full-corpus snapshot and starts bdrmapitd
// on it.
func (r *runner) startServing(ctx context.Context, live string) (*daemon, error) {
	if err := publish(r.serveDer.snapshots()[0], live); err != nil {
		return nil, err
	}
	return startDaemon(ctx, r.bin, live)
}

// expected opens both swap snapshots in-process, full corpus first;
// every served answer is verified against the one whose fingerprint it
// carries.
func expected(der *derived) (map[uint64]*serve.Snapshot, []swapSnap, error) {
	exp := map[uint64]*serve.Snapshot{}
	var swap []swapSnap
	for _, p := range der.snapshots() {
		s, err := serve.Open(p)
		if err != nil {
			return nil, nil, err
		}
		exp[s.Fingerprint()] = s
		swap = append(swap, swapSnap{path: p, fp: s.Fingerprint()})
	}
	return exp, swap, nil
}

// warm answers warmup verified requests, so the timed load starts on
// a daemon with its connection and caches warm.
func (r *runner) warm(ctx context.Context, d *daemon) error {
	res, err := r.load(ctx, d, loadSpec{seed: r.seed - 1, requests: warmup})
	if err != nil {
		return err
	}
	r.tally("serve.answers", res.attempted, res.failed)
	return nil
}

// serveLoad pools what the serve segments measured.
type serveLoad struct {
	latUS             []float64 // every attempted request; +Inf when it failed
	verified, reloads int
	elapsed           time.Duration
	reloadMS          []float64
}

// serveSegment runs closed-loop load for dur with periodic hot swaps.
func (r *runner) serveSegment(ctx context.Context, d *daemon, load *serveLoad, seg int, dur time.Duration) error {
	res, err := r.load(ctx, d, loadSpec{seed: r.seed + int64(seg), dur: dur, swap: r.swap})
	if err != nil {
		return err
	}
	r.tally("serve.answers", res.attempted, res.failed)
	r.tally("serve.reloads", res.reloads, res.reloadFailed)
	load.latUS = append(load.latUS, res.latUS...)
	load.verified += res.verified
	load.reloads += res.reloads
	load.elapsed += res.elapsed
	load.reloadMS = append(load.reloadMS, res.reloadMS...)
	return nil
}

// finishServe records the lookup metrics over every attempted request
// of the segments: p50 and p99 latency, failures counted as slower than
// any answer, and verified answers per second of load.
func (r *runner) finishServe(load *serveLoad) {
	sort.Float64s(load.latUS)
	for name, q := range map[string]float64{"lookup_p50_us": 0.50, "lookup_p99_us": 0.99} {
		v := quantile(load.latUS, q)
		if math.IsInf(v, 1) {
			// JSON has no +Inf: report the whole load's length, which
			// no answered request can exceed.
			v = float64(load.elapsed.Microseconds())
		}
		r.sample(name, v)
	}
	r.sample("lookup_rps", float64(load.verified)/load.elapsed.Seconds())
	rec := map[string]any{
		"requests": len(load.latUS), "verified": load.verified, "reloads": load.reloads,
		"load_s": load.elapsed.Seconds(),
	}
	if len(load.reloadMS) > 0 {
		rec["reload_p50_ms"] = median(load.reloadMS)
	}
	r.record["serve"] = rec
}
