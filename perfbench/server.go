package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one driserve process with its own scratch directory (log file
// and -persistdir), listening on an ephemeral loopback port.
type server struct {
	cmd    *exec.Cmd
	dir    string
	base   string
	client *http.Client
	exited chan struct{}
	pprof  string // base URL of the pprof listener, "" when off
}

var listenRE = regexp.MustCompile(`msg="driserve listening" addr=(\S+)`)

// startServer boots driserve with a fresh -persistdir under dir and waits
// until /healthz answers. With pprof set it also serves net/http/pprof,
// which the traced run reads the server's allocation counters from.
func startServer(ctx context.Context, bin, dir string, pprof bool) (*server, error) {
	if bin == "" {
		return nil, errors.New("no driserve binary given (-driserve)")
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logPath := filepath.Join(dir, "driserve.log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	args := []string{"-addr", "127.0.0.1:0", "-persistdir", filepath.Join(dir, "persist")}
	s := &server{dir: dir, exited: make(chan struct{})}
	if pprof {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		args = append(args, "-pprof", strconv.Itoa(port))
		s.pprof = fmt.Sprintf("http://127.0.0.1:%d", port)
	}
	s.cmd = exec.Command(bin, args...)
	s.cmd.Stdout = logf
	s.cmd.Stderr = logf
	// If this process dies without running its clean-up, the kernel kills
	// the server too.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start driserve: %w", err)
	}
	go func() {
		s.cmd.Wait()
		close(s.exited)
	}()
	s.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
	if err := s.waitReady(ctx, logPath); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// waitReady polls the server's log for its listen address, then /healthz,
// without fixed sleeps beyond a short poll interval.
func (s *server) waitReady(ctx context.Context, logPath string) error {
	deadline := time.Now().Add(30 * time.Second)
	poll := func() error {
		select {
		case <-s.exited:
			b, _ := os.ReadFile(logPath)
			return fmt.Errorf("driserve exited during start-up: %s", strings.TrimSpace(string(b)))
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return errors.New("driserve did not become ready within 30s")
		}
		return nil
	}
	for s.base == "" {
		if b, err := os.ReadFile(logPath); err == nil {
			if m := listenRE.FindSubmatch(b); m != nil {
				s.base = "http://" + string(m[1])
				break
			}
		}
		if err := poll(); err != nil {
			return err
		}
	}
	for {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if err := poll(); err != nil {
			return err
		}
	}
}

// stop kills the server, waits for it to exit and removes its directory.
func (s *server) stop() {
	if s == nil {
		return
	}
	s.cmd.Process.Kill()
	<-s.exited
	s.client.CloseIdleConnections()
	os.RemoveAll(s.dir)
}

// post sends one JSON request and returns the status and body.
func (s *server) post(ctx context.Context, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return s.do(req)
}

// get fetches url, on the server or its pprof listener.
func (s *server) get(ctx context.Context, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	return s.do(req)
}

func (s *server) do(req *http.Request) (int, []byte, error) {
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// statsView is the part of /v1/stats the benchmark reads.
type statsView struct {
	Engine struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"engine"`
	Lanes struct {
		Batches     uint64 `json:"batches"`
		Lanes       uint64 `json:"lanes"`
		DecodeSaved uint64 `json:"decodeSaved"`
		Fallbacks   uint64 `json:"fallbacks"`
	} `json:"lanes"`
	Trace struct {
		Bytes    int64  `json:"bytes"`
		Bypasses uint64 `json:"bypasses"`
	} `json:"trace"`
	Persist *struct {
		Status        string `json:"status"`
		Bytes         int64  `json:"bytes"`
		QueueDepth    int    `json:"queueDepth"`
		Writes        uint64 `json:"writes"`
		DroppedWrites uint64 `json:"droppedWrites"`
	} `json:"persist"`
}

func (s *server) stats(ctx context.Context) (statsView, error) {
	var v statsView
	status, b, err := s.get(ctx, s.base+"/v1/stats")
	if err != nil {
		return v, err
	}
	if status != http.StatusOK {
		return v, fmt.Errorf("/v1/stats: status %d", status)
	}
	if err := json.Unmarshal(b, &v); err != nil {
		return v, fmt.Errorf("/v1/stats: %w", err)
	}
	if v.Persist == nil {
		return v, errors.New("/v1/stats has no persist block (server started without -persistdir?)")
	}
	return v, nil
}

// waitPersisted polls /v1/stats until the persist write-behind queue is
// empty. A degraded (memory-only) store fails it: serve-miss must pay its
// persist writes.
func (s *server) waitPersisted(ctx context.Context) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		v, err := s.stats(ctx)
		if err != nil {
			return err
		}
		if v.Persist.Status != "ok" {
			return fmt.Errorf("persistence is %s, not ok", v.Persist.Status)
		}
		if v.Persist.QueueDepth == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("persist queue still %d deep after 30s", v.Persist.QueueDepth)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// promValue reads one unlabelled sample from /metrics.
func (s *server) promValue(ctx context.Context, name string) (float64, error) {
	_, b, err := s.get(ctx, s.base+"/metrics")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, fmt.Errorf("/metrics has no %s sample", name)
}

// memStats reads the server's cumulative allocation and GC counters from
// the runtime.MemStats dump of /debug/pprof/heap?debug=1.
func (s *server) memStats(ctx context.Context) (totalAlloc, numGC float64, err error) {
	if s.pprof == "" {
		return 0, 0, errors.New("server started without pprof")
	}
	_, b, err := s.get(ctx, s.pprof+"/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, 0, err
	}
	found := 0
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "# TotalAlloc = "); ok {
			totalAlloc, err = strconv.ParseFloat(strings.TrimSpace(v), 64)
			found++
		} else if v, ok := strings.CutPrefix(line, "# NumGC = "); ok {
			numGC, err = strconv.ParseFloat(strings.TrimSpace(v), 64)
			found++
		}
		if err != nil {
			return 0, 0, err
		}
	}
	if found != 2 {
		return 0, 0, errors.New("pprof heap dump lacks TotalAlloc/NumGC")
	}
	return totalAlloc, numGC, nil
}

// cpuSeconds is the server's user+system CPU time from /proc/<pid>/stat.
func (s *server) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (USER_HZ = 100).
	rest := string(b[bytes.LastIndexByte(b, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) / 100, nil
}
