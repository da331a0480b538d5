package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// histdWorkers is the server's worker-pool size. It equals the client
// connection count, so a closed loop keeps every worker busy without
// building a queue.
const histdWorkers = 2

// histdFlags are the flags every histd the benchmark starts runs with
// (a traced pass adds -trace-json).
var histdFlags = []string{"-addr", "127.0.0.1:0", "-workers", strconv.Itoa(histdWorkers)}

// buildHistd compiles cmd/histd from the module rooted at root into dir
// and returns the binary's path. The build is excluded from setup_s.
func buildHistd(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "histd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/histd")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("building cmd/histd in %s: %v\n%s", root, err, out)
	}
	return bin, nil
}

// histd is one running server process.
type histd struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *stderrLog
	done chan struct{} // closed once Wait has returned
	err  error         // Wait's result, valid after done
}

// startHistd launches bin with the benchmark's flags plus extra, and
// returns once the server has announced its listening address.
func startHistd(ctx context.Context, bin string, extra ...string) (*histd, error) {
	log := &stderrLog{addr: make(chan string, 1)}
	cmd := exec.Command(bin, append(append([]string(nil), histdFlags...), extra...)...)
	cmd.Stderr = log
	// The server must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting histd: %w", err)
	}
	h := &histd{cmd: cmd, log: log, done: make(chan struct{})}
	go func() {
		h.err = cmd.Wait()
		close(h.done)
	}()
	select {
	case addr := <-log.addr:
		h.base = "http://" + addr
		return h, nil
	case <-h.done:
		return nil, fmt.Errorf("histd exited before listening: %v\n%s", h.err, log.tail())
	case <-ctx.Done():
		h.stop()
		return nil, ctx.Err()
	case <-time.After(30 * time.Second):
		h.stop()
		return nil, errors.New("histd did not announce its address within 30s")
	}
}

// pid returns the server's process ID.
func (h *histd) pid() int { return h.cmd.Process.Pid }

// stop drains the server with SIGTERM, which also flushes a -trace-json
// file, and waits for it to exit; a server still running after the
// drain budget is killed.
func (h *histd) stop() error {
	select {
	case <-h.done:
		return h.err
	default:
	}
	_ = h.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-h.done:
		return h.err
	case <-time.After(20 * time.Second):
		_ = h.cmd.Process.Kill()
		<-h.done
		return fmt.Errorf("histd ignored SIGTERM for 20s and was killed\n%s", h.log.tail())
	}
}

// waitHealthy polls GET /healthz until it answers 200.
func waitHealthy(ctx context.Context, hc *http.Client, base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		status, _, err := get(ctx, hc, base, "/healthz")
		if err == nil && status == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("histd not healthy after 30s (status %d, %v)", status, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// stderrLog is histd's stderr: it hands the "listening on" address to
// startHistd and keeps the last lines for error reports.
type stderrLog struct {
	mu      sync.Mutex
	partial []byte
	lines   []string
	addr    chan string // buffered(1); receives the address once
	sent    bool
}

const listenPrefix = "histd: listening on http://"

func (l *stderrLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.partial = append(l.partial, p...)
	for {
		i := bytes.IndexByte(l.partial, '\n')
		if i < 0 {
			break
		}
		line := string(l.partial[:i])
		l.partial = l.partial[i+1:]
		if !l.sent && strings.HasPrefix(line, listenPrefix) {
			l.addr <- strings.TrimPrefix(line, listenPrefix)
			l.sent = true
		}
		l.lines = append(l.lines, line)
		if len(l.lines) > 20 {
			l.lines = l.lines[1:]
		}
	}
	return len(p), nil
}

func (l *stderrLog) tail() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.lines, "\n")
}

// clockTicks is the kernel's USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat. It is 100 on every mainstream Linux architecture, and
// reading it properly needs sysconf, which pure Go cannot call.
const clockTicks = 100

// cpuTime returns the user+system CPU time a process has used, from
// /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(b)
}

// parseStatCPU extracts utime+stime (fields 14 and 15) from the contents
// of /proc/<pid>/stat. The command name (field 2) is parenthesized and
// may contain spaces, so fields are counted from the last ')'.
func parseStatCPU(b []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no ')' after the command name")
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state), so field n is f[n-3].
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command name, want at least 13", len(f))
	}
	var ticks int64
	for _, s := range f[11:13] {
		t, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc stat: %v", err)
		}
		ticks += t
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// peakRSS returns a process's resident-set high-water mark (VmHWM) in
// bytes, from /proc/<pid>/status.
func peakRSS(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return parseVmHWM(f)
}

// parseVmHWM reads the "VmHWM:   1234 kB" line of a /proc/<pid>/status
// file.
func parseVmHWM(r io.Reader) (int64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM line %q", sc.Text())
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status: %v", err)
		}
		return kb << 10, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("proc status: no VmHWM line")
}
