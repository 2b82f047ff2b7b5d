package bench

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Proc is one running master process.
type Proc struct {
	Addr    string
	cmd     *exec.Cmd
	log     *os.File
	started time.Time
	done    chan struct{}
	waitErr error
}

// StartMaster spawns bin listening on a free loopback port with the
// extra args, logging to logPath.
func StartMaster(bin, logPath string, args ...string) (*Proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = log, log
	// A benchmark killed from outside takes its masters with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &Proc{Addr: addr, cmd: cmd, log: log, done: make(chan struct{})}
	p.started = time.Now()
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		p.waitErr = cmd.Wait()
		log.Close()
		close(p.done)
	}()
	return p, nil
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// WaitHealthy polls GET /healthz until it answers 200 and returns the
// time since the process was spawned.
func (p *Proc) WaitHealthy(timeout time.Duration) (time.Duration, error) {
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: time.Second}
	deadline := p.started.Add(timeout)
	for {
		resp, err := hc.Get("http://" + p.Addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(p.started), nil
			}
		}
		select {
		case <-p.done:
			return 0, fmt.Errorf("master exited before becoming healthy: %v", p.waitErr)
		default:
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("master on %s not healthy after %v", p.Addr, timeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// PeakRSSMB reads the process's peak resident set (VmHWM) in MB.
func (p *Proc) PeakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// CPUSeconds reads the process's user plus system CPU time so far.
func (p *Proc) CPUSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the whole line, in clock ticks.
	rest := string(data[strings.LastIndexByte(string(data), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", data)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) / 100, nil // USER_HZ is 100 on Linux
}

// Stop asks the master to drain and exit (SIGTERM) and waits for it.
func (p *Proc) Stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-p.done:
		return p.waitErr
	case <-time.After(60 * time.Second):
		_ = p.Kill()
		return errors.New("master did not stop within 60s of SIGTERM")
	}
}

// Kill ends the master at once (SIGKILL) and waits for it.
func (p *Proc) Kill() error {
	if err := p.cmd.Process.Kill(); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	<-p.done
	return nil
}
