package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"idaflash/internal/server"
)

// serverProc is one idaserver child process with its own store directory.
type serverProc struct {
	cmd      *exec.Cmd
	dir      string
	url      string       // API base URL
	pprof    string       // profiling listener base URL
	client   *http.Client // the workload's load, two connections at most
	ctl      *http.Client // /statz and profile reads, outside the load's connections
	exited   chan struct{}
	stopOnce sync.Once
}

// connsPerHost caps the HTTP workloads' client at two connections, one per
// server worker, so the benchmark process is the only source of load and
// cannot queue more than the machine's two cores can serve.
const connsPerHost = 2

// serverRequests is the server's default per-trace request budget.
const serverRequests = 2500

// startServer launches idaserver with two workers on free loopback ports
// and a fresh store directory under the work directory, and waits until
// /healthz answers. It returns the time from exec to ready.
func startServer(e *env) (*serverProc, time.Duration, error) {
	dir, err := os.MkdirTemp(e.workdir, e.name+"-")
	if err != nil {
		return nil, 0, err
	}
	ports, err := freePorts(2)
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	logf, err := os.Create(filepath.Join(dir, "server.log"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	s := &serverProc{
		dir:    dir,
		url:    "http://" + ports[0],
		pprof:  "http://" + ports[1],
		exited: make(chan struct{}),
		client: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: connsPerHost, MaxIdleConnsPerHost: connsPerHost, DisableCompression: true},
			Timeout:   2 * time.Minute,
		},
		ctl: &http.Client{Timeout: 30 * time.Second},
	}
	s.cmd = exec.Command(e.server,
		"-listen", ports[0], "-pprof-listen", ports[1],
		"-workers", "2", "-requests", strconv.Itoa(serverRequests),
		"-store-dir", filepath.Join(dir, "store"))
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	start := time.Now()
	err = s.cmd.Start()
	logf.Close() // the child holds its own descriptor
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, fmt.Errorf("starting %s: %w", e.server, err)
	}
	go func() {
		_ = s.cmd.Wait() // the exit status of a server we stop is not a result
		close(s.exited)
	}()
	for {
		if resp, err := s.ctl.Get(s.url + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case <-s.exited:
			msg := s.logTail()
			s.stop()
			return nil, 0, fmt.Errorf("idaserver exited during startup: %s", msg)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(start) > 30*time.Second {
			s.stop()
			return nil, 0, fmt.Errorf("idaserver not ready after 30s")
		}
	}
}

// stop sends SIGTERM, waits for the graceful drain (killing the process if
// it takes longer than 15 s), and removes the store directory.
func (s *serverProc) stop() {
	s.stopOnce.Do(func() {
		select {
		case <-s.exited:
		default:
			_ = s.cmd.Process.Signal(syscall.SIGTERM)
			select {
			case <-s.exited:
			case <-time.After(15 * time.Second):
				_ = s.cmd.Process.Kill()
				<-s.exited
			}
		}
		s.client.CloseIdleConnections()
		s.ctl.CloseIdleConnections()
		os.RemoveAll(s.dir)
	})
}

func (s *serverProc) logTail() string {
	b, _ := os.ReadFile(filepath.Join(s.dir, "server.log"))
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}

func (s *serverProc) pid() string { return strconv.Itoa(s.cmd.Process.Pid) }

// statz reads the server's operational counters.
func (s *serverProc) statz() (server.Statz, error) {
	var st server.Statz
	resp, err := s.ctl.Get(s.url + "/statz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/statz: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// totalAlloc reads runtime.MemStats.TotalAlloc of the server from the
// memory statistics its heap profile ends with.
func (s *serverProc) totalAlloc() (uint64, error) {
	var lastErr error
	for attempt := 0; attempt < 50; attempt++ {
		resp, err := s.ctl.Get(s.pprof + "/debug/pprof/heap?debug=1")
		if err != nil {
			// The profiling listener may start a moment after the API.
			lastErr = err
			time.Sleep(10 * time.Millisecond)
			continue
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		sc := bufio.NewScanner(bytes.NewReader(b))
		sc.Buffer(make([]byte, 1<<16), 1<<24)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "# TotalAlloc = "); ok {
				return strconv.ParseUint(strings.TrimSpace(v), 10, 64)
			}
		}
		return 0, fmt.Errorf("heap profile has no TotalAlloc line")
	}
	return 0, fmt.Errorf("reading the heap profile: %w", lastErr)
}

// freePorts reserves n loopback addresses by listening on port 0.
func freePorts(n int) ([]string, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	var addrs []string
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

// vmHWM is a process's peak resident set size in MB ("self" for this one).
func vmHWM(pid string) float64 {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// clockTick is Linux's USER_HZ, the unit of /proc/<pid>/stat CPU times; it
// is 100 on every mainstream kernel and not readable without cgo.
const clockTick = 10 * time.Millisecond

// procCPU is a process's user plus system CPU time.
func procCPU(pid string) (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%s/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%s/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%s/stat", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// usage is a server's resource counters at one instant.
type usage struct {
	cpu   time.Duration
	alloc uint64
	statz server.Statz
}

func (s *serverProc) usage() (usage, error) {
	var u usage
	var err error
	if u.cpu, err = procCPU(s.pid()); err != nil {
		return u, err
	}
	if u.alloc, err = s.totalAlloc(); err != nil {
		return u, err
	}
	u.statz, err = s.statz()
	return u, err
}
