package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	bdrmapit "repro"
	"repro/internal/ckpt"
)

// ctxFiles names a run's non-trace inputs.
type ctxFiles struct {
	RIB, RIR, IXP, Rels, Aliases string
}

func (c ctxFiles) sources(traces []string) bdrmapit.Sources {
	return bdrmapit.Sources{
		TraceroutePaths:     traces,
		BGPRIBPaths:         []string{c.RIB},
		RIRDelegationPaths:  []string{c.RIR},
		IXPPrefixListPaths:  []string{c.IXP},
		ASRelationshipPaths: []string{c.Rels},
		AliasNodePaths:      []string{c.Aliases},
	}
}

// opSpec is what the parent hands a child process on stdin.
type opSpec struct {
	Op      string   `json:"op"` // "infer", "ingest" (with Batches) or "bootstrap"
	Traces  []string `json:"traces"`
	Batches []string `json:"batches,omitempty"`
	Ctx     ctxFiles `json:"ctx"`
	Workers int      `json:"workers"`
	// OutDir receives the artifacts (annotations.txt, links.txt, itdk/,
	// serve.snap); StateDir is the ingest store.
	OutDir   string `json:"out_dir"`
	StateDir string `json:"state_dir,omitempty"`
}

// opResult is what a child reports back.
type opResult struct {
	Seconds    float64 `json:"seconds"`
	Iterations int     `json:"iterations,omitempty"`
	Absorbed   int     `json:"absorbed,omitempty"`
	Rejected   int     `json:"rejected,omitempty"`
	PeakRSSMiB float64 `json:"peak_rss_mib"`
}

// Artifact names inside an op's OutDir.
const (
	annFile  = "annotations.txt"
	linkFile = "links.txt"
	itdkDir  = "itdk"
	snapFile = "serve.snap"
)

// runChild executes one operation in a fresh process so its peak RSS
// belongs to the operation alone.
func runChild(ctx context.Context, bin string, sp opSpec) (opResult, error) {
	in, err := json.Marshal(&sp)
	if err != nil {
		return opResult{}, err
	}
	cmd := exec.CommandContext(ctx, bin, "child")
	cmd.Stdin = bytes.NewReader(in)
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return opResult{}, fmt.Errorf("%s op: %w: %s", sp.Op, err, lastLines(errb.String(), 5))
	}
	var res opResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return opResult{}, fmt.Errorf("%s op: bad result %q: %w", sp.Op, out.String(), err)
	}
	return res, nil
}

// peakRSSMiB is this process's resident high-water mark. It reads
// VmHWM rather than rusage: a child's ru_maxrss also counts the
// parent's peak, inherited through the exec of a forked address space.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// childMain is the child side of runChild.
func childMain() error {
	var sp opSpec
	if err := json.NewDecoder(os.Stdin).Decode(&sp); err != nil {
		return err
	}
	var (
		res opResult
		err error
	)
	switch sp.Op {
	case "infer":
		res, err = inferOp(sp)
	case "ingest", "bootstrap":
		res, err = ingestOp(sp)
	default:
		err = fmt.Errorf("unknown op %q", sp.Op)
	}
	if err != nil {
		return err
	}
	if res.PeakRSSMiB, err = peakRSSMiB(); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(&res)
}

// inferOp is one cmd/bdrmapit run: inference over the files, then the
// annotations, links, ITDK and serve-snapshot artifacts.
func inferOp(sp opSpec) (opResult, error) {
	start := time.Now()
	res, err := bdrmapit.RunContext(context.Background(), sp.Ctx.sources(sp.Traces),
		bdrmapit.Options{Workers: sp.Workers, Strict: true, WarnWriter: io.Discard})
	if err != nil {
		return opResult{}, err
	}
	if err := writeArtifacts(res, sp.OutDir); err != nil {
		return opResult{}, err
	}
	return opResult{Seconds: time.Since(start).Seconds(), Iterations: res.Iterations}, nil
}

// writeArtifacts writes what cmd/bdrmapit writes for -annotations,
// -links, -itdk and -serve-snapshot.
func writeArtifacts(res *bdrmapit.Result, dir string) error {
	if err := ckpt.AtomicWrite(filepath.Join(dir, annFile), res.Annotations); err != nil {
		return err
	}
	if err := ckpt.AtomicWrite(filepath.Join(dir, linkFile), func(w io.Writer) error { return writeLinks(w, res) }); err != nil {
		return err
	}
	if err := res.WriteITDK(filepath.Join(dir, itdkDir)); err != nil {
		return err
	}
	return res.WriteServeSnapshot(filepath.Join(dir, snapFile))
}

// writeLinks renders links in cmd/bdrmapit's -links format.
func writeLinks(w io.Writer, res *bdrmapit.Result) error {
	for _, l := range res.InterdomainLinks() {
		if _, err := fmt.Fprintf(w, "%d %d %s %s\n", l.NearAS, l.FarAS, l.FarAddr, l.Confidence); err != nil {
			return err
		}
	}
	return nil
}

// ingestOp is one bdrmapit-ingest session: absorb the batches into the
// store, publishing annotations and a serve snapshot after each. With
// no batches it is the bootstrap session that creates the store.
func ingestOp(sp opSpec) (opResult, error) {
	start := time.Now()
	res, err := bdrmapit.IngestContext(context.Background(), sp.Ctx.sources(sp.Traces), sp.Batches, bdrmapit.IngestOptions{
		StateDir:        sp.StateDir,
		AnnotationsPath: filepath.Join(sp.OutDir, annFile),
		SnapshotPath:    filepath.Join(sp.OutDir, snapFile),
		Run:             bdrmapit.Options{Workers: sp.Workers, Strict: true, WarnWriter: io.Discard},
	})
	if err != nil {
		return opResult{}, err
	}
	return opResult{
		Seconds:  time.Since(start).Seconds(),
		Absorbed: res.Absorbed,
		Rejected: res.Skipped + res.Quarantined,
	}, nil
}

// fileDigest is the FNV-64a of a file's bytes — for annotations, the
// same digest the serve snapshot records as AnnDigest.
func fileDigest(path string) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	h := fnv.New64a()
	if _, err := io.Copy(h, f); err != nil {
		return 0, err
	}
	return h.Sum64(), nil
}

// copyDir copies a directory tree of regular files.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(p string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if fi.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, fi.Mode().Perm())
	})
}
