package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// derived holds the cached references a run checks against, all
// computed once per dataset and build at workers 1 so that every timed
// operation at workers=nproc is also a worker-invariance check. They
// are program outputs, so they are kept per build (see buildID): a
// changed program never serves, resumes from or is checked against
// artifacts another build wrote.
type derived struct {
	// InferDigest is the annotations digest of a run over full.jsonl.
	InferDigest uint64 `json:"infer_digest"`
	// IngestRefs maps a batch set to the annotations digest of a
	// from-scratch run over base.jsonl plus those batches, in order.
	IngestRefs map[string]uint64 `json:"ingest_refs"`

	dir string
}

// Layout of a build's directory under a dataset's derived/.
const (
	derivedFile  = "derived.json"
	fullOut      = "full"       // artifacts of the reference run over full.jsonl
	minusLastOut = "minus-last" // artifacts of a run without the last VP
	bootOut      = "bootstrap"  // ingest store bootstrapped over base.jsonl
)

func (d *derived) path(elem ...string) string {
	return filepath.Join(append([]string{d.dir}, elem...)...)
}

// snapshots returns the two serve snapshots the daemon swaps between:
// the full corpus and the corpus without its last vantage point.
func (d *derived) snapshots() [2]string {
	return [2]string{d.path(fullOut, snapFile), d.path(minusLastOut, snapFile)}
}

// derive loads a dataset's references, computing whichever are
// missing. With batches it also keeps a bootstrapped ingest store and
// the ingest reference for that batch set.
func (r *runner) derive(ctx context.Context, ds *dataset, batches []string) (*derived, error) {
	d := &derived{dir: filepath.Join(ds.path("derived"), r.build), IngestRefs: map[string]uint64{}}
	if data, err := os.ReadFile(d.path(derivedFile)); err == nil {
		if err := json.Unmarshal(data, d); err != nil {
			return nil, fmt.Errorf("derived references: %w", err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	dirty := false
	ctxf := ds.context()
	ref := func(name string, traces []string) (uint64, error) {
		logf("computing reference %s (workers 1)", name)
		tmp, err := os.MkdirTemp(r.work, "ref-")
		if err != nil {
			return 0, err
		}
		if _, err := runChild(ctx, r.self(), opSpec{Op: "infer", Traces: traces, Ctx: ctxf, Workers: 1, OutDir: tmp}); err != nil {
			return 0, err
		}
		dig, err := fileDigest(filepath.Join(tmp, annFile))
		if err != nil {
			return 0, err
		}
		if name != "" {
			if err := os.MkdirAll(d.dir, 0o755); err != nil {
				return 0, err
			}
			if err := os.RemoveAll(d.path(name)); err != nil {
				return 0, err
			}
			if err := os.Rename(tmp, d.path(name)); err != nil {
				return 0, err
			}
		}
		return dig, nil
	}
	if _, err := os.Stat(d.path(fullOut, snapFile)); err != nil || d.InferDigest == 0 {
		dig, err := ref(fullOut, []string{ds.path(fullFile)})
		if err != nil {
			return nil, err
		}
		d.InferDigest, dirty = dig, true
	}
	held := ds.man.Batches
	if _, err := os.Stat(d.path(minusLastOut, snapFile)); err != nil {
		if _, err := ref(minusLastOut, corpus(ds, held[:len(held)-1])); err != nil {
			return nil, err
		}
	}
	if len(batches) == 0 {
		return d, d.save(dirty)
	}
	if _, err := os.Stat(d.path(bootOut, "state")); err != nil {
		logf("bootstrapping the cached ingest store")
		tmp, err := os.MkdirTemp(r.work, "boot-")
		if err != nil {
			return nil, err
		}
		if _, err := runChild(ctx, r.self(), bootstrapSpec(ds, tmp, r.workers)); err != nil {
			return nil, err
		}
		if err := os.Rename(tmp, d.path(bootOut)); err != nil {
			return nil, err
		}
	}
	key := joinBatches(batches)
	if _, ok := d.IngestRefs[key]; !ok {
		dig, err := ref("", corpus(ds, batches))
		if err != nil {
			return nil, err
		}
		d.IngestRefs[key], dirty = dig, true
	}
	return d, d.save(dirty)
}

// save publishes derived.json when something new was computed.
func (d *derived) save(dirty bool) error {
	if !dirty {
		return nil
	}
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	tmp := d.path(derivedFile + ".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, d.path(derivedFile))
}

// corpus is base.jsonl followed by the given batch files: the merged
// corpus an ingest session over those batches converges to.
func corpus(ds *dataset, batches []string) []string {
	out := []string{ds.path(baseFile)}
	for _, b := range batches {
		out = append(out, ds.path(b))
	}
	return out
}

// bootstrapSpec is the session that creates an ingest store over the
// base corpus; its StateDir is dir/state.
func bootstrapSpec(ds *dataset, dir string, workers int) opSpec {
	return opSpec{
		Op: "bootstrap", Traces: []string{ds.path(baseFile)}, Ctx: ds.context(),
		Workers: workers, OutDir: dir, StateDir: filepath.Join(dir, "state"),
	}
}

func (r *runner) self() string { return filepath.Join(r.bin, "perfbench") }

// buildID names the build under test by the SHA-256 of the benchmark
// binary, which links the program's packages and runs every infer and
// ingest operation, and of bdrmapitd.
func buildID(bin string) (string, error) {
	h := sha256.New()
	for _, name := range []string{"perfbench", "bdrmapitd"} {
		sum, err := sha256File(filepath.Join(bin, name))
		if err != nil {
			return "", err
		}
		h.Write([]byte(sum))
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// joinBatches is the key a batch set's ingest reference is cached by.
func joinBatches(batches []string) string { return strings.Join(batches, ",") }
