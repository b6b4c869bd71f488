package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/alias"
	"repro/internal/asn"
	"repro/internal/asrel"
	"repro/internal/bgp"
	"repro/internal/ckpt"
	"repro/internal/eval"
	"repro/internal/rir"
	"repro/internal/topo"
	"repro/internal/traceroute"
)

// genSeed is the topology seed every dataset is generated with. The
// datasets are fixed so the cache stays warm across benchmark seeds:
// a cold M-rung export costs minutes, far more than one run may take.
// The benchmark seed instead drives the sampled parts of a run (which
// held-out vantage points become ingest batches, and the request
// stream).
//
// Ingest always runs on the dense dataset: its single-VP batches are
// ~1% of the corpus each, the increments ingest exists for, where one
// of the M rung's 12 VPs is 8%.
const genSeed = 2018

// Context file names, in the formats cmd/bdrmapit reads.
const (
	ribFile      = "rib.txt"
	rirFile      = "delegated-extended.txt"
	ixpFile      = "ixp-prefixes.txt"
	relsFile     = "as-rel.txt"
	aliasFile    = "nodes.txt"
	fullFile     = "full.jsonl"
	baseFile     = "base.jsonl"
	manifestFile = "manifest.json"
)

// spec describes how one dataset is manufactured from the simulator.
type spec struct {
	cfg       topo.Config
	vps       int
	excludeGT bool
	// chunk > 0 streams the campaign destination-major (the ladder's
	// generator); 0 runs the VP-major campaign simnet uses.
	chunk int
	// heldOut is how many vantage points are kept out of the base
	// corpus and exported one file each: the ingest batches, and the
	// last VP the second serve snapshot leaves out.
	heldOut int
}

// specFor returns the recipe for a dataset at a scale. "wide" is the
// benchmark ladder's M rung (few traces per interface); "dense" is the
// default simnet dataset (100 VPs, many traces per interface). The
// small scale swaps both for the ~50-AS topology so tests take seconds.
func specFor(name, scale string) (spec, error) {
	switch {
	case name == "wide" && scale == "full":
		r, err := topo.LadderRung("M", genSeed)
		if err != nil {
			return spec{}, err
		}
		return spec{cfg: r.Cfg, vps: r.NumVPs, chunk: r.Chunk, heldOut: 1}, nil
	case name == "dense" && scale == "full":
		return spec{cfg: topo.DefaultConfig(genSeed), vps: 100, excludeGT: true, heldOut: 10}, nil
	case name == "wide" && scale == "small":
		return spec{cfg: topo.SmallConfig(genSeed), vps: 8, heldOut: 1}, nil
	case name == "dense" && scale == "small":
		return spec{cfg: topo.SmallConfig(genSeed), vps: 20, excludeGT: true, heldOut: 6}, nil
	}
	return spec{}, fmt.Errorf("no dataset %q at scale %q", name, scale)
}

// manifest records what a cached dataset holds and the content
// fingerprint checked before every use.
type manifest struct {
	Name    string            `json:"name"`
	Scale   string            `json:"scale"`
	GenSeed int64             `json:"gen_seed"`
	VPs     []string          `json:"vps"`
	Traces  int               `json:"traces"`
	Batches []string          `json:"batches"`
	Files   map[string]string `json:"files"`
	// Substrate holds the simulator's timings in seconds. They are the
	// cost of manufacturing inputs, never a system metric.
	Substrate map[string]float64 `json:"substrate"`
}

// dataset is a verified cached dataset.
type dataset struct {
	dir string
	man manifest
}

func (d *dataset) path(name string) string { return filepath.Join(d.dir, name) }

// context returns the non-trace inputs of a run.
func (d *dataset) context() ctxFiles {
	return ctxFiles{
		RIB:     d.path(ribFile),
		RIR:     d.path(rirFile),
		IXP:     d.path(ixpFile),
		Rels:    d.path(relsFile),
		Aliases: d.path(aliasFile),
	}
}

// openDataset returns the cached dataset, generating it first when the
// cache holds none. It does not check the fingerprint; see verify.
func openDataset(cacheDir, name, scale string) (*dataset, error) {
	sp, err := specFor(name, scale)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(cacheDir, fmt.Sprintf("%s-%s-g%d-h%d", name, scale, genSeed, sp.heldOut))
	if _, err := os.Stat(filepath.Join(dir, manifestFile)); errors.Is(err, os.ErrNotExist) {
		if err := generate(dir, name, scale, sp); err != nil {
			return nil, fmt.Errorf("generating dataset %s: %w", name, err)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return nil, err
	}
	d := &dataset{dir: dir}
	if err := json.Unmarshal(data, &d.man); err != nil {
		return nil, fmt.Errorf("dataset %s: manifest: %w", name, err)
	}
	return d, nil
}

// verify recomputes every file's content fingerprint and compares it
// with the manifest.
func (d *dataset) verify() error {
	got, err := fingerprintFiles(d.dir, d.man.Files)
	if err != nil {
		return err
	}
	for name, want := range d.man.Files {
		if got[name] != want {
			return fmt.Errorf("dataset %s: %s fingerprint %s, manifest says %s", d.man.Name, name, got[name], want)
		}
	}
	return nil
}

func fingerprintFiles(dir string, files map[string]string) (map[string]string, error) {
	out := make(map[string]string, len(files))
	for name := range files {
		sum, err := sha256File(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		out[name] = sum
	}
	return out, nil
}

func sha256File(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("hashing %s: %w", path, err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// generate manufactures a dataset into dir through the simulator's
// public APIs and the repository's file writers, then publishes it by
// renaming a complete temporary directory into place.
func generate(dir, name, scale string, sp spec) error {
	logf("generating dataset %s (%s scale); this happens once per checkout", name, scale)
	if err := os.MkdirAll(filepath.Dir(dir), 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(filepath.Dir(dir), ".gen-"+name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	sub := map[string]float64{}
	timed := func(key string, f func() error) error {
		start := time.Now()
		err := f()
		sub[key] += time.Since(start).Seconds()
		return err
	}

	var in *topo.Internet
	if err := timed("generate_s", func() (err error) {
		in, err = topo.Generate(sp.cfg)
		return err
	}); err != nil {
		return err
	}
	exclude := asn.NewSet()
	if sp.excludeGT {
		for _, a := range in.GroundTruthNetworks() {
			exclude.Add(a)
		}
	}
	vps := in.SelectVPs(sp.vps, exclude)
	if len(vps) <= sp.heldOut {
		return fmt.Errorf("dataset %s: %d VPs cannot hold out %d", name, len(vps), sp.heldOut)
	}
	var traces []*traceroute.Trace
	_ = timed("campaign_s", func() error {
		if sp.chunk > 0 {
			traces = in.CollectCampaign(vps, in.Targets(), sp.chunk)
		} else {
			traces = in.RunCampaign(vps, in.Targets())
		}
		return nil
	})
	var sets *alias.Sets
	_ = timed("aliases_s", func() error {
		addrs := eval.ObservedAddrs(traces)
		p := in.Prober()
		sets = alias.Merge(alias.MIDAR(p, addrs, alias.MIDAROptions{}), alias.Iffinder(p, addrs))
		return nil
	})

	man := manifest{Name: name, Scale: scale, GenSeed: genSeed, Traces: len(traces)}
	for _, vp := range vps {
		man.VPs = append(man.VPs, vp.Name)
	}
	baseVPs := map[string]bool{}
	for _, v := range man.VPs[:len(man.VPs)-sp.heldOut] {
		baseVPs[v] = true
	}
	heldOut := man.VPs[len(man.VPs)-sp.heldOut:]
	files := []string{ribFile, rirFile, ixpFile, relsFile, aliasFile, fullFile, baseFile}
	if err := timed("export_s", func() error {
		writers := map[string]func(io.Writer) error{
			ribFile:   func(w io.Writer) error { return bgp.WriteRoutes(w, in.Routes) },
			rirFile:   func(w io.Writer) error { return rir.WriteRecords(w, "simrir", in.RIRRecords()) },
			ixpFile:   func(w io.Writer) error { return in.IXPPrefixes.WriteList(w) },
			relsFile:  func(w io.Writer) error { return asrel.Infer(in.ASPaths()).Write(w) },
			aliasFile: func(w io.Writer) error { return sets.WriteNodes(w) },
			fullFile:  tracesWriter(traces, func(*traceroute.Trace) bool { return true }),
			baseFile:  tracesWriter(traces, func(t *traceroute.Trace) bool { return baseVPs[t.VP] }),
		}
		for i, vp := range heldOut {
			vp := vp
			bname := "batch-" + strconv.Itoa(i+1) + ".jsonl"
			writers[bname] = tracesWriter(traces, func(t *traceroute.Trace) bool { return t.VP == vp })
			files = append(files, bname)
			man.Batches = append(man.Batches, bname)
		}
		for _, f := range files {
			if err := ckpt.AtomicWrite(filepath.Join(tmp, f), writers[f]); err != nil {
				return fmt.Errorf("writing %s: %w", f, err)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	man.Files = make(map[string]string, len(files))
	for _, f := range files {
		man.Files[f] = ""
	}
	sums, err := fingerprintFiles(tmp, man.Files)
	if err != nil {
		return err
	}
	man.Files = sums
	man.Substrate = sub
	data, err := json.MarshalIndent(&man, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(tmp, manifestFile), data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, dir); err != nil {
		return fmt.Errorf("publishing dataset: %w", err)
	}
	logf("dataset %s: %d VPs, %d traces; substrate seconds %v", name, len(vps), len(traces), sub)
	return nil
}

func tracesWriter(traces []*traceroute.Trace, keep func(*traceroute.Trace) bool) func(io.Writer) error {
	return func(w io.Writer) error {
		jw := traceroute.NewJSONLWriter(w)
		for _, t := range traces {
			if keep(t) {
				if err := jw.Write(t); err != nil {
					return err
				}
			}
		}
		return jw.Flush()
	}
}
