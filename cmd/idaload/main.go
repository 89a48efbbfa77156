// Command idaload drives a running idaserver with an open-loop, ramped
// request stream and reports the latency distribution, shed rate, and
// result-cache hit ratio — the numbers the CI load job gates on.
//
// Usage:
//
//	idaload -url http://127.0.0.1:8080 [-rate 20] [-ramp 2s] [-duration 10s]
//	        [-concurrency 32] [-profiles usr_1,proj_3] [-requests 2000]
//	        [-wait-ready 15s] [-prime] [-json]
//	        [-max-p99 500ms] [-max-shed-rate 0] [-min-hit-rate 0.9]
//
// The generator cycles over a small point set (each profile as Baseline and
// as IDA-E20) and fires POST /v1/run arrivals at a rate that ramps linearly
// over -ramp to the target -rate, independent of response latency (open
// loop): a slow server faces the same arrival pressure a fast one does,
// which is what makes shed behavior observable. -concurrency caps in-flight
// requests; arrivals beyond it are counted as local drops, not sent.
//
// -wait-ready polls GET /healthz with backoff until the server answers (or
// the window expires), so idaserver and idaload can be launched together —
// in CI or a chaos script — without sleeps; connection refusals during
// server boot are part of the wait, never counted as load errors.
//
// With -prime, every distinct point is run once, serially, before the timed
// phase, so the measured traffic is served from the result cache — the
// regime the P99 gate is calibrated for.
//
// Exit status: 0 on success, 1 on setup or transport failure, 2 when a
// -max-p99 / -max-shed-rate / -min-hit-rate gate fails.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"idaflash/internal/server"
)

type point struct {
	name string
	body []byte
}

// report is the -json output and the source of the text summary.
type report struct {
	Sent       int64   `json:"sent"`
	OK         int64   `json:"ok"`
	Shed       int64   `json:"shed"`
	Errors     int64   `json:"errors"`
	Dropped    int64   `json:"dropped"` // local concurrency-cap drops, never sent
	P50Ms      float64 `json:"p50_ms"`
	P90Ms      float64 `json:"p90_ms"`
	P99Ms      float64 `json:"p99_ms"`
	MaxMs      float64 `json:"max_ms"`
	ShedRate   float64 `json:"shed_rate"`
	HitRate    float64 `json:"hit_rate"`    // result-store Δhits/(Δhits+Δmisses)
	CachedResp int64   `json:"cached_resp"` // responses with "cached":true
}

func main() {
	var (
		url         = flag.String("url", "http://127.0.0.1:8080", "idaserver base URL")
		rate        = flag.Float64("rate", 20, "target arrivals per second at full ramp")
		ramp        = flag.Duration("ramp", 2*time.Second, "linear ramp-up of the arrival rate")
		duration    = flag.Duration("duration", 10*time.Second, "total load duration (including the ramp)")
		concurrency = flag.Int("concurrency", 32, "max in-flight requests; arrivals beyond it are dropped locally")
		profiles    = flag.String("profiles", "usr_1", "comma-separated workload profiles to cycle")
		requests    = flag.Int("requests", 2000, "per-trace request budget sent with every run")
		timeoutMs   = flag.Int64("timeout-ms", 60_000, "per-run timeout sent with every run")
		waitReady   = flag.Duration("wait-ready", 15*time.Second, "poll /healthz with backoff for up to this long before starting; 0 skips the wait")
		prime       = flag.Bool("prime", false, "run every distinct point once, serially, before the timed phase")
		asJSON      = flag.Bool("json", false, "emit the report as JSON")
		maxP99      = flag.Duration("max-p99", 0, "fail (exit 2) when the OK-response P99 exceeds this; 0 disables")
		maxShed     = flag.Float64("max-shed-rate", -1, "fail (exit 2) when shed/(sent) exceeds this; negative disables")
		minHitRate  = flag.Float64("min-hit-rate", -1, "fail (exit 2) when the result-cache hit rate is below this; negative disables")
	)
	flag.Parse()

	points := buildPoints(strings.Split(*profiles, ","), *requests, *timeoutMs)
	if len(points) == 0 {
		fmt.Fprintln(os.Stderr, "idaload: no profiles")
		os.Exit(1)
	}
	client := &http.Client{Timeout: time.Duration(*timeoutMs+30_000) * time.Millisecond}

	if *waitReady > 0 {
		if err := waitForServer(client, *url, *waitReady); err != nil {
			fmt.Fprintln(os.Stderr, "idaload:", err)
			os.Exit(1)
		}
	}

	if *prime {
		for _, pt := range points {
			code, _, err := post(client, *url, pt.body)
			if err != nil || code != http.StatusOK {
				fmt.Fprintf(os.Stderr, "idaload: priming %s: status %d err %v\n", pt.name, code, err)
				os.Exit(1)
			}
		}
	}

	before, err := readStatz(client, *url)
	if err != nil {
		fmt.Fprintln(os.Stderr, "idaload:", err)
		os.Exit(1)
	}

	rep := drive(client, *url, points, *rate, *ramp, *duration, *concurrency)

	after, err := readStatz(client, *url)
	if err != nil {
		fmt.Fprintln(os.Stderr, "idaload:", err)
		os.Exit(1)
	}
	dh := after.Results.Hits - before.Results.Hits
	dm := after.Results.Misses - before.Results.Misses
	if dh+dm > 0 {
		rep.HitRate = float64(dh) / float64(dh+dm)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rep)
	} else {
		fmt.Printf("sent %d  ok %d  shed %d  errors %d  dropped %d\n",
			rep.Sent, rep.OK, rep.Shed, rep.Errors, rep.Dropped)
		fmt.Printf("latency ms  p50 %.1f  p90 %.1f  p99 %.1f  max %.1f\n",
			rep.P50Ms, rep.P90Ms, rep.P99Ms, rep.MaxMs)
		fmt.Printf("shed rate %.3f  cache hit rate %.3f  cached responses %d\n",
			rep.ShedRate, rep.HitRate, rep.CachedResp)
	}

	fail := false
	if *maxP99 > 0 && rep.P99Ms > float64(maxP99.Milliseconds()) {
		fmt.Fprintf(os.Stderr, "idaload: P99 %.1fms exceeds gate %v\n", rep.P99Ms, *maxP99)
		fail = true
	}
	if *maxShed >= 0 && rep.ShedRate > *maxShed {
		fmt.Fprintf(os.Stderr, "idaload: shed rate %.3f exceeds gate %.3f\n", rep.ShedRate, *maxShed)
		fail = true
	}
	if *minHitRate >= 0 && rep.HitRate < *minHitRate {
		fmt.Fprintf(os.Stderr, "idaload: cache hit rate %.3f below gate %.3f\n", rep.HitRate, *minHitRate)
		fail = true
	}
	if rep.Errors > 0 {
		fmt.Fprintf(os.Stderr, "idaload: %d requests errored\n", rep.Errors)
		fail = true
	}
	if fail {
		os.Exit(2)
	}
}

// waitForServer polls /healthz until the server answers 200, backing off
// from 25ms to 500ms between attempts. A booting server's connection
// refusals are expected here — the whole point is launching server and
// client together without sleeps — so only the deadline turns them into an
// error.
func waitForServer(client *http.Client, url string, window time.Duration) error {
	deadline := time.Now().Add(window)
	delay := 25 * time.Millisecond
	var lastErr error
	for {
		resp, err := client.Get(url + "/healthz")
		if err == nil {
			code := resp.StatusCode
			resp.Body.Close()
			if code == http.StatusOK {
				return nil
			}
			lastErr = fmt.Errorf("status %d", code)
		} else {
			lastErr = err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready after %v: %v", window, lastErr)
		}
		time.Sleep(delay)
		if delay *= 2; delay > 500*time.Millisecond {
			delay = 500 * time.Millisecond
		}
	}
}

// buildPoints expands each profile into its Baseline and IDA-E20 run bodies.
func buildPoints(profiles []string, requests int, timeoutMs int64) []point {
	var pts []point
	for _, p := range profiles {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		base := fmt.Sprintf(`{"profile":%q,"requests":%d,"timeout_ms":%d,"system":{}}`, p, requests, timeoutMs)
		ida := fmt.Sprintf(`{"profile":%q,"requests":%d,"timeout_ms":%d,"system":{"ida":true,"error_rate":0.2}}`, p, requests, timeoutMs)
		pts = append(pts,
			point{name: p + "/Baseline", body: []byte(base)},
			point{name: p + "/IDA-E20", body: []byte(ida)})
	}
	return pts
}

// drive fires the open-loop arrival process and collects the outcome.
func drive(client *http.Client, url string, points []point, rate float64, ramp, duration time.Duration, concurrency int) report {
	var (
		rep       report
		mu        sync.Mutex
		latencies []float64 // OK responses only, milliseconds
		wg        sync.WaitGroup
		inflight  = make(chan struct{}, concurrency)
		sent      atomic.Int64
	)
	start := time.Now()
	next := start
	for i := 0; ; i++ {
		now := time.Now()
		elapsed := now.Sub(start)
		if elapsed >= duration {
			break
		}
		// Linear ramp: 10% of the target at t=0 to 100% at t=ramp.
		r := rate
		if ramp > 0 && elapsed < ramp {
			r = rate * (0.1 + 0.9*float64(elapsed)/float64(ramp))
		}
		if wait := time.Until(next); wait > 0 {
			time.Sleep(wait)
		}
		next = next.Add(time.Duration(float64(time.Second) / r))
		select {
		case inflight <- struct{}{}:
		default:
			rep.Dropped++
			continue
		}
		pt := points[i%len(points)]
		wg.Add(1)
		go func() {
			defer func() { <-inflight; wg.Done() }()
			sent.Add(1)
			t0 := time.Now()
			code, cached, err := post(client, url, pt.body)
			ms := float64(time.Since(t0).Microseconds()) / 1000
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err != nil:
				rep.Errors++
			case code == http.StatusOK:
				rep.OK++
				latencies = append(latencies, ms)
				if cached {
					rep.CachedResp++
				}
			case code == http.StatusTooManyRequests:
				rep.Shed++
			default:
				rep.Errors++
			}
		}()
	}
	wg.Wait()
	rep.Sent = sent.Load()
	if rep.Sent > 0 {
		rep.ShedRate = float64(rep.Shed) / float64(rep.Sent)
	}
	sort.Float64s(latencies)
	rep.P50Ms = percentile(latencies, 50)
	rep.P90Ms = percentile(latencies, 90)
	rep.P99Ms = percentile(latencies, 99)
	if n := len(latencies); n > 0 {
		rep.MaxMs = latencies[n-1]
	}
	return rep
}

// post sends one run request, returning the status and the response's
// cached flag.
func post(client *http.Client, url string, body []byte) (code int, cached bool, err error) {
	resp, err := client.Post(url+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, false, err
	}
	defer resp.Body.Close()
	var rr struct {
		Cached bool `json:"cached"`
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return resp.StatusCode, false, err
	}
	_ = json.Unmarshal(b, &rr)
	return resp.StatusCode, rr.Cached, nil
}

func readStatz(client *http.Client, url string) (server.Statz, error) {
	var z server.Statz
	resp, err := client.Get(url + "/statz")
	if err != nil {
		return z, fmt.Errorf("reading /statz: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return z, fmt.Errorf("reading /statz: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&z); err != nil {
		return z, fmt.Errorf("decoding /statz: %w", err)
	}
	return z, nil
}

// percentile reads the p-th percentile from sorted values (nearest-rank).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
