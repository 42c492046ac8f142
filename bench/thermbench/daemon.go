package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/thermal"
)

// buildDaemon compiles cmd/thermservd from the repository at root into
// dir and returns the binary's path.
func buildDaemon(root, dir string) (string, error) {
	bin := filepath.Join(dir, "thermservd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/thermservd")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("build thermservd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemonInfo is the configuration a daemon announces on start: the
// resolved defaults the in-process replays must reproduce.
type daemonInfo struct {
	Res     experiments.Resolution
	Solver  thermal.Solver
	Workers int
	Threads int
}

var listeningLine = regexp.MustCompile(`^thermservd listening on (\S+) \(res=(\S+) solver=(\S+) workers=(\d+) threads=(\d+)\)$`)

func parseListening(line string) (addr string, info daemonInfo, err error) {
	m := listeningLine.FindStringSubmatch(line)
	if m == nil {
		return "", info, fmt.Errorf("unexpected first daemon line %q", line)
	}
	if info.Res, err = experiments.ParseResolution(m[2]); err != nil {
		return "", info, err
	}
	if info.Solver, err = thermal.ParseSolver(m[3]); err != nil {
		return "", info, err
	}
	info.Workers, _ = strconv.Atoi(m[4])
	info.Threads, _ = strconv.Atoi(m[5])
	return m[1], info, nil
}

// daemon is one running thermservd process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	info daemonInfo
	// lines receives every stdout line after the listening line; it is
	// closed when stdout ends.
	lines  chan string
	exited chan struct{}
	err    error // the process's exit status, valid after exited closes
}

// startDaemon spawns the daemon on an ephemeral loopback port and returns
// once it listens. Its stderr goes to logPath.
func startDaemon(bin, logPath string, args ...string) (*daemon, error) {
	args = append([]string{"-addr", "127.0.0.1:0", "-res", "coarse"}, args...)
	cmd := exec.Command(bin, args...)
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd.Stderr = logf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start thermservd: %w", err)
	}
	// The daemon prints at most a handful of lines after the first, and
	// they are read only when it is stopped: the buffer holds them all, so
	// the reader never blocks the daemon's stdout.
	d := &daemon{cmd: cmd, lines: make(chan string, 16), exited: make(chan struct{})}
	first := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		if sc.Scan() {
			first <- sc.Text()
		}
		close(first)
		for sc.Scan() {
			d.lines <- sc.Text()
		}
		close(d.lines)
		d.err = cmd.Wait()
		close(d.exited)
	}()
	select {
	case line, ok := <-first:
		if !ok {
			d.kill()
			return nil, fmt.Errorf("thermservd exited before listening (see %s)", logPath)
		}
		addr, info, err := parseListening(line)
		if err != nil {
			d.kill()
			return nil, err
		}
		d.base, d.info = "http://"+addr, info
		return d, nil
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, fmt.Errorf("thermservd did not listen within 30 s")
	}
}

// stop sends SIGTERM and requires the graceful drain: exit status 0 and
// the "drained, bye" line.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("sigterm: %w", err)
	}
	timeout := time.NewTimer(60 * time.Second)
	defer timeout.Stop()
	bye := false
	for lines := d.lines; lines != nil; {
		select {
		case line, ok := <-lines:
			if !ok {
				lines = nil
			}
			bye = bye || line == "thermservd: drained, bye"
		case <-timeout.C:
			d.kill()
			return fmt.Errorf("thermservd did not drain within 60 s of SIGTERM")
		}
	}
	<-d.exited
	if d.err != nil {
		return fmt.Errorf("thermservd exit: %w", d.err)
	}
	if !bye {
		return fmt.Errorf("thermservd exited without the drained, bye line")
	}
	return nil
}

// kill stops the process unconditionally and waits for it; it is a no-op
// on an exited daemon.
func (d *daemon) kill() {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Kill()
	for range d.lines {
	}
	<-d.exited
}

// peakRSSMB reads the daemon's resident-set high-water mark (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// client is the benchmark's HTTP client: at most conns kept-alive
// connections to the daemon.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// do sends one request and returns the status and the whole body.
func do(ctx context.Context, c *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// expect sends one request and fails unless the daemon answers want.
func expect(ctx context.Context, c *http.Client, method, url string, body []byte, want int) ([]byte, error) {
	status, out, err := do(ctx, c, method, url, body)
	if err != nil {
		return nil, err
	}
	if status != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, status, bytes.TrimSpace(out))
	}
	return out, nil
}

// stats reads /v1/stats.
func (d *daemon) stats(ctx context.Context, c *http.Client) (serve.Stats, error) {
	var st serve.Stats
	body, err := expect(ctx, c, http.MethodGet, d.base+"/v1/stats", nil, http.StatusOK)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(body, &st)
}
