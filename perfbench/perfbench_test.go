package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildBench builds the benchmark and bdrmapitd into a temporary root
// holding a copy of BENCHMARK.json, where the small datasets are cached.
func buildBench(t *testing.T) (root string) {
	t.Helper()
	root = t.TempDir()
	spec, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "BENCHMARK.json"), spec, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "build", "-o", root+string(filepath.Separator), ".", "repro/cmd/bdrmapitd")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return root
}

// TestSmoke runs every workload untraced and traced over the small
// topology and checks the result line carries exactly the metrics
// BENCHMARK.json names, with their units, and no failed operation.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	root := buildBench(t)
	e2e, layer, err := loadMetricNames(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloads {
		for trace, want := range []map[string]string{e2e, layer} {
			cmd := exec.Command(filepath.Join(root, "perfbench"), "--root", root, "--bin", root, "--scale", "small",
				"--workload", wl.name, "--seed", "7", "--seconds", "1", "--trace", []string{"0", "1"}[trace])
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s trace=%d: %v\n%s", wl.name, trace, err, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%d: last line: %v", wl.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", wl.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, BENCHMARK.json names %d", wl.name, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", wl.name, trace, name, m, unit)
				}
			}
		}
	}
}

// smallRunner prepares an in-process runner over the small datasets.
func smallRunner(t *testing.T, wl string) *runner {
	t.Helper()
	root := buildBench(t)
	for _, w := range workloads {
		if w.name == wl {
			r, err := newRunner(root, root, "small", w, 3, 1)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { os.RemoveAll(r.work) })
			if err := r.prepare(context.Background()); err != nil {
				t.Fatal(err)
			}
			return r
		}
	}
	t.Fatalf("no workload %s", wl)
	return nil
}

// TestCorruptAnnotationFails: one wrong annotation line makes the
// operation that wrote it a failed operation.
func TestCorruptAnnotationFails(t *testing.T) {
	r := smallRunner(t, "infer-wide")
	r.afterOp = func(dir string) {
		path := filepath.Join(dir, annFile)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		line := bytes.IndexByte(data, ' ') // first line's router AS follows
		data[line+1] ^= 1
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.inferOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if r.attempted != 1 || r.failed != 1 || r.gates["infer.annotations"] {
		t.Fatalf("attempted=%d failed=%d gates=%v, want the one operation failed", r.attempted, r.failed, r.gates)
	}
}

// TestTamperedAnswerFails: an answer that disagrees with the snapshot
// it names is a failed request.
func TestTamperedAnswerFails(t *testing.T) {
	r := smallRunner(t, "infer-wide")
	ctx := context.Background()
	d, err := r.startServing(ctx, filepath.Join(r.work, "live.snap"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	flip := strings.NewReplacer(`"found":true`, `"found":false`, `"found":false`, `"found":true`,
		`"interdomain":true`, `"interdomain":false`, `"interdomain":false`, `"interdomain":true`)
	r.tamper = func(b []byte) []byte { return []byte(flip.Replace(string(b))) }
	res, err := r.load(ctx, d, loadSpec{seed: 1, requests: 200})
	if err != nil {
		t.Fatal(err)
	}
	if res.attempted != 200 || res.failed != 200 || res.verified != 0 || !math.IsInf(res.latUS[0], 1) {
		t.Fatalf("attempted=%d failed=%d verified=%d, want every tampered answer failed", res.attempted, res.failed, res.verified)
	}
}
