package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/serve"
)

// daemon is a running bdrmapitd child serving the file at live.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	live   string
	stderr bytes.Buffer
	done   chan error
}

// startDaemon starts bdrmapitd on a free loopback port and waits for
// /-/ready to answer 200.
func startDaemon(ctx context.Context, bin, live string) (*daemon, error) {
	d := &daemon{live: live, done: make(chan error, 1)}
	d.cmd = exec.Command(filepath.Join(bin, "bdrmapitd"), "-snapshot", live, "-addr", "127.0.0.1:0")
	d.cmd.Stderr = &d.stderr
	out, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		if sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
		_, _ = io.Copy(io.Discard, out) // drain until the daemon exits
		d.done <- d.cmd.Wait()
	}()
	select {
	case line, ok := <-lines:
		i := strings.Index(line, "http://")
		if !ok || i < 0 {
			d.stop()
			return nil, fmt.Errorf("bdrmapitd did not announce its address: %s", lastLines(d.stderr.String(), 3))
		}
		d.base = strings.Fields(line[i:])[0]
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("bdrmapitd did not start within 30s")
	}
	client := newControlClient()
	defer client.CloseIdleConnections()
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := client.Get(d.base + "/-/ready")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			d.stop()
			return nil, fmt.Errorf("bdrmapitd never became ready: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit,
// killing it if the drain stalls.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// publish atomically replaces the daemon's snapshot file with src.
func publish(src, live string) error {
	tmp := live + ".next"
	_ = os.Remove(tmp)
	if err := os.Link(src, tmp); err != nil {
		return err
	}
	return os.Rename(tmp, live)
}

// swapSnap is a snapshot artifact and its content fingerprint.
type swapSnap struct {
	path string
	fp   uint64
}

// loadSpec is one closed-loop load phase against a daemon.
type loadSpec struct {
	seed int64
	dur  time.Duration
	// requests, when > 0, bounds the phase by count instead of dur.
	requests int64
	// swap, when set, alternates the daemon between these snapshot
	// files every reloadEvery while the load runs.
	swap []swapSnap
}

// loadResult is what the phase measured.
type loadResult struct {
	attempted, failed, verified int
	reloads, reloadFailed       int
	elapsed                     time.Duration
	latUS                       []float64 // per attempted request, sorted; +Inf when it failed
	reloadMS                    []float64
}

// load runs one phase through serve.Bench with one client, so one
// closed loop on one connection: each request is sent once the
// previous answer arrived and was verified against the snapshot whose
// fingerprint it carries. A degraded or refused answer is a failure:
// one connection never loads the daemon past its admission limits.
func (r *runner) load(ctx context.Context, d *daemon, sp loadSpec) (*loadResult, error) {
	clock := &requestClock{next: &http.Transport{DisableCompression: true}, tamper: r.tamper}
	// Bench's clients send through http.DefaultTransport; nothing else
	// in this process does while a phase runs (the daemon's probes and
	// reloads have transports of their own).
	prev := http.DefaultTransport
	http.DefaultTransport = clock
	defer func() {
		http.DefaultTransport = prev
		clock.next.CloseIdleConnections()
	}()

	res := &loadResult{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if len(sp.swap) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reloadLoop(d, sp.swap, res, stop)
		}()
	}
	start := time.Now()
	b, err := serve.Bench(ctx, serve.BenchConfig{
		BaseURL: d.base, Clients: 1, Requests: sp.requests, Duration: sp.dur, ZipfS: 1.2,
		Seed: sp.seed, Addrs: r.addrs, Expected: r.exp,
	})
	res.elapsed = time.Since(start)
	close(stop)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	res.verified = int(b.OK + b.NotFound)
	res.attempted = res.verified + int(b.Degraded+b.Shed+b.Failed+b.Inconsistent)
	res.failed = res.attempted - res.verified
	if res.failed > 0 {
		logf("serve: %s", b)
	}
	// The clock marks transport failures and refusals; Bench does not
	// say which answers failed verification, so the fastest answers are
	// counted as those: the quantiles are then upper bounds.
	res.latUS = clock.latUS
	sort.Float64s(res.latUS)
	for i := 0; i < int(b.Degraded+b.Inconsistent) && i < len(res.latUS); i++ {
		res.latUS[i] = math.Inf(1)
	}
	sort.Float64s(res.latUS)
	return res, nil
}

// requestClock is the transport a load phase's requests go through. It
// times each request from sending it until its answer's body is read,
// and hands Bench the body read.
type requestClock struct {
	next   *http.Transport
	tamper func([]byte) []byte
	mu     sync.Mutex
	latUS  []float64
}

func (c *requestClock) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := c.next.RoundTrip(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	lat := float64(time.Since(t0).Nanoseconds()) / 1e3
	if req.Context().Err() != nil {
		// The phase ended mid-request; Bench does not count it either.
		return nil, req.Context().Err()
	}
	if err != nil || resp.StatusCode != http.StatusOK {
		lat = math.Inf(1)
	}
	c.mu.Lock()
	c.latUS = append(c.latUS, lat)
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if c.tamper != nil {
		body = c.tamper(body)
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// reloadLoop alternates the published snapshot on its own connection
// until stop closes. Each swap must answer 200 with the fingerprint of
// the snapshot just published.
func reloadLoop(d *daemon, swap []swapSnap, res *loadResult, stop chan struct{}) {
	ctl := newControlClient()
	defer ctl.CloseIdleConnections()
	tick := time.NewTicker(reloadEvery)
	defer tick.Stop()
	for next := 1; ; next++ {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		src := swap[next%len(swap)]
		t0 := time.Now()
		err := reloadTo(ctl, d.base, d.live, src)
		// res fields written here are read only after wg.Wait.
		res.reloadMS = append(res.reloadMS, float64(time.Since(t0).Nanoseconds())/1e6)
		res.reloads++
		if err != nil {
			res.reloadFailed++
			logf("serve: reload: %v", err)
		}
	}
}

// newControlClient is the client probes and reloads go through, on a
// transport of its own so a swap never queues behind a lookup.
func newControlClient() *http.Client {
	return &http.Client{Transport: &http.Transport{}, Timeout: 10 * time.Second}
}

// reloadTo publishes src over the daemon's snapshot file and asks the
// daemon at base to swap to it.
func reloadTo(ctl *http.Client, base, live string, src swapSnap) error {
	if err := publish(src.path, live); err != nil {
		return err
	}
	resp, err := ctl.Post(base+"/-/reload", "text/plain", nil)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("reload status %d: %s", resp.StatusCode, body)
	}
	var r struct {
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	if got, err := parseFP(r.Fingerprint); err != nil || got != src.fp {
		return fmt.Errorf("reload published fingerprint %s, want %#x", r.Fingerprint, src.fp)
	}
	return nil
}

func parseFP(s string) (uint64, error) {
	return strconv.ParseUint(strings.TrimPrefix(s, "0x"), 16, 64)
}

// population returns the addresses the load draws from, in Zipf rank
// order: every interface of the snapshot, shuffled by the seed, plus
// one guaranteed miss per 64 interfaces (from 198.18.0.0/15, which the
// simulator never allocates) at random ranks.
func population(snap *serve.Snapshot, seed int64) []netip.Addr {
	out := make([]netip.Addr, 0, len(snap.Ifaces)+len(snap.Ifaces)/64+1)
	for _, f := range snap.Ifaces {
		out = append(out, f.Addr)
	}
	for i := 0; i <= len(snap.Ifaces)/64; i++ {
		out = append(out, netip.AddrFrom4([4]byte{198, 18 + byte(i>>16&1), byte(i >> 8), byte(i)}))
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
