package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
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
)

// userHZ is the kernel's fixed clock-tick rate for /proc/<pid>/stat
// times on Linux.
const userHZ = 100

// findRoot returns the repository root: the directory holding
// cmd/wsdeployd, searched from the working directory upward one level so
// the harness runs both from the root and from bench/.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if st, err := os.Stat(filepath.Join(dir, "cmd", "wsdeployd")); err == nil && st.IsDir() {
			return dir, nil
		}
	}
	return "", fmt.Errorf("no cmd/wsdeployd in %s or its parent: run from the repository root", wd)
}

// buildDaemon compiles cmd/wsdeployd from source into out.
func buildDaemon(root, out string) (string, error) {
	bin := filepath.Join(out, "wsdeployd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/wsdeployd")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building wsdeployd: %w", err)
	}
	return bin, nil
}

// daemon is one running wsdeployd.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	log    *os.File
}

// startDaemon launches wsdeployd on a free loopback port with a durable
// data directory and a per-record fsync; every other flag keeps its
// default.
func startDaemon(bin, dataDir, logPath string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := net.JoinHostPort("127.0.0.1", strconv.Itoa(port))
	cmd := exec.Command(bin, "-addr", addr, "-data", dataDir, "-fsync", "always")
	cmd.Stdout, cmd.Stderr = logf, logf
	// Backstop: the daemon dies with the harness even if it crashes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting wsdeployd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, exited: make(chan struct{}), log: logf}
	go func() {
		cmd.Wait()
		close(d.exited)
	}()
	return d, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitReady polls GET /v1/readyz until it answers 200, finely enough
// not to add noise to a startup of a few milliseconds.
func (d *daemon) waitReady(ctx context.Context, cl *http.Client) error {
	ctx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v1/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := cl.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.exited:
			return fmt.Errorf("wsdeployd exited before ready (log: %s)", d.log.Name())
		case <-ctx.Done():
			return fmt.Errorf("wsdeployd not ready: %w", ctx.Err())
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// kill sends SIGKILL and waits for the process to be reaped.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
	d.log.Close()
}

// cpu returns the daemon's user plus system CPU time so far.
func (d *daemon) cpu() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat line")
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	var ticks int64
	for _, s := range f[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / userHZ, nil
}

// memMB returns a memory field of the daemon's /proc status, such as
// VmRSS or VmHWM, in MiB.
func (d *daemon) memMB(field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// sampleRSS samples the daemon's resident set every 100 ms until the
// returned stop is called, which returns the samples in MiB.
func (d *daemon) sampleRSS() (stop func() []float64) {
	quit := make(chan struct{})
	done := make(chan []float64, 1)
	go func() {
		var out []float64
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			if mb, err := d.memMB("VmRSS"); err == nil {
				out = append(out, mb)
			}
			select {
			case <-quit:
				done <- out
				return
			case <-tick.C:
			}
		}
	}()
	return func() []float64 {
		close(quit)
		return <-done
	}
}

// scrape reads the named series from the daemon's /metrics exposition.
func scrape(ctx context.Context, cl *http.Client, base string, names ...string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := cl.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && want[f[0]] {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return nil, err
			}
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// connCounter counts the client's open connections and remembers the
// peak, so a run can prove it never held more than its budget.
type connCounter struct {
	mu         sync.Mutex
	open, peak int
	d          net.Dialer
}

func (c *connCounter) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	conn, err := c.d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.open++
	c.peak = max(c.peak, c.open)
	c.mu.Unlock()
	return &countedConn{Conn: conn, c: c}, nil
}

func (c *connCounter) peakOpen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peak
}

type countedConn struct {
	net.Conn
	c    *connCounter
	once sync.Once
}

func (cc *countedConn) Close() error {
	cc.once.Do(func() {
		cc.c.mu.Lock()
		cc.c.open--
		cc.c.mu.Unlock()
	})
	return cc.Conn.Close()
}

// newClient returns a keep-alive client that never opens more than conns
// connections to a host.
func newClient(conns int) (*http.Client, *connCounter) {
	cc := &connCounter{}
	tr := &http.Transport{
		DialContext:         cc.dial,
		MaxConnsPerHost:     conns,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     90 * time.Second,
		DisableCompression:  true,
	}
	return &http.Client{Transport: tr, Timeout: 60 * time.Second}, cc
}
