package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Server is one running cmd/serve process.
type Server struct {
	Addr  string // host:port
	cmd   *exec.Cmd
	out   *os.File
	exit  chan error
	start time.Time
}

// FreeAddr returns a loopback address with a port that was free a moment
// ago.
func FreeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// StartServer starts bin with args plus -addr, logging to logPath.
func StartServer(bin, logPath string, args ...string) (*Server, error) {
	addr, err := FreeAddr()
	if err != nil {
		return nil, err
	}
	out, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append(args, "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = out, out
	s := &Server{Addr: addr, cmd: cmd, out: out, exit: make(chan error, 1)}
	s.start = time.Now()
	if err := cmd.Start(); err != nil {
		out.Close()
		return nil, err
	}
	go func() { s.exit <- cmd.Wait() }()
	return s, nil
}

// WaitReady polls ready every poll until it reports true and returns the
// time since the process started. It fails if the process exits or the
// timeout passes.
func (s *Server) WaitReady(timeout, poll time.Duration, ready func() (bool, error)) (time.Duration, error) {
	deadline := s.start.Add(timeout)
	for {
		ok, err := ready()
		if ok {
			return time.Since(s.start), nil
		}
		select {
		case werr := <-s.exit:
			s.exit <- werr
			return 0, fmt.Errorf("server exited during set-up (%v); log %s: %v", werr, s.out.Name(), err)
		default:
		}
		sleepFor(poll)
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("server not ready after %s (log %s): %v", timeout, s.out.Name(), err)
		}
	}
}

// Healthy reports whether GET /healthz answers 200.
func (s *Server) Healthy() (bool, error) {
	code, _, err := s.Get("/healthz")
	return err == nil && code == 200, err
}

var admin = &http.Client{Timeout: 10 * time.Second}

// Get performs an untimed administrative GET.
func (s *Server) Get(target string) (int, []byte, error) {
	resp, err := admin.Get("http://" + s.Addr + target)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// GetJSON performs an untimed GET and decodes its JSON body into v.
func (s *Server) GetJSON(target string, v any) error {
	code, body, err := s.Get(target)
	if err != nil {
		return err
	}
	if code != 200 {
		return fmt.Errorf("GET %s: status %d: %s", target, code, body)
	}
	return json.Unmarshal(body, v)
}

// Post performs an untimed administrative POST.
func (s *Server) Post(target, body string) (int, []byte, error) {
	resp, err := admin.Post("http://"+s.Addr+target, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// PeakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func (s *Server) PeakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// CPUSeconds returns the CPU time the process's threads have run, summed
// over /proc/<pid>/task/*/schedstat at nanosecond resolution. The Go
// runtime does not end its threads, so no time leaves the sum.
func (s *Server) CPUSeconds() (float64, error) {
	dir := fmt.Sprintf("/proc/%d/task", s.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var ns int64
	for _, t := range tasks {
		b, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread ended between the listing and the read
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("malformed %s/%s/schedstat", dir, t.Name())
		}
		v, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		ns += v
	}
	return float64(ns) / 1e9, nil
}

// Stop terminates the process and waits for it to exit.
func (s *Server) Stop() {
	defer s.out.Close()
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is fine
	select {
	case <-s.exit:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exit
	}
}

// Prometheus scrapes GET /metrics?format=prometheus and returns every
// sample that is not a histogram bucket.
func (s *Server) Prometheus() (map[string]float64, error) {
	code, body, err := s.Get("/metrics?format=prometheus")
	if err != nil {
		return nil, err
	}
	if code != 200 {
		return nil, fmt.Errorf("prometheus scrape: status %d", code)
	}
	return ParsePrometheus(string(body)), nil
}

// ParsePrometheus parses the text exposition's unlabelled samples.
func ParsePrometheus(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// RouteMean returns the mean of histogram name between two scrapes, and
// its sample count.
func RouteMean(before, after map[string]float64, name string) (mean, count float64) {
	count = after[name+"_count"] - before[name+"_count"]
	if count <= 0 {
		return 0, 0
	}
	return (after[name+"_sum"] - before[name+"_sum"]) / count, count
}
