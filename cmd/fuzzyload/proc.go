package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one running fuzzyserve child.
type serverProc struct {
	cmd     *exec.Cmd
	url     string
	logPath string
	exited  chan struct{} // closed once Wait has returned
	waitErr error
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before the server binds it; nothing else on the box competes for
// ephemeral ports during a run.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches bin with args on a free loopback port, appending its
// stderr to logPath, and returns once GET /healthz answers 200. If the
// child exits first or never turns healthy the error carries its log.
func startServer(ctx context.Context, bin string, args []string, logPath string) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	// The child dies with the harness even when the harness is SIGKILLed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &serverProc{cmd: cmd, url: "http://" + addr, logPath: logPath, exited: make(chan struct{})}
	go func() {
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()
	if err := s.waitHealthy(ctx, 60*time.Second); err != nil {
		s.kill()
		return nil, fmt.Errorf("%w\n--- %s ---\n%s", err, filepath.Base(logPath), s.logTail())
	}
	return s, nil
}

func (s *serverProc) waitHealthy(ctx context.Context, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	client := &http.Client{Timeout: time.Second}
	for {
		select {
		case <-s.exited:
			return fmt.Errorf("fuzzyserve exited before turning healthy: %v", s.waitErr)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := client.Get(s.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fuzzyserve not healthy after %v", limit)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill sends SIGKILL and waits for the child to be reaped.
func (s *serverProc) kill() {
	_ = s.cmd.Process.Kill() // already exited is fine
	<-s.exited
}

// alive reports whether the child is still running.
func (s *serverProc) alive() bool {
	select {
	case <-s.exited:
		return false
	default:
		return true
	}
}

func (s *serverProc) logTail() string {
	b, err := os.ReadFile(s.logPath)
	if err != nil {
		return err.Error()
	}
	if len(b) > 4096 {
		b = b[len(b)-4096:]
	}
	return string(b)
}

// cpuSeconds returns user+system CPU time a process has used, from
// /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after its ")".
	i := bytes.LastIndexByte(b, ')')
	fields := strings.Fields(string(b[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, errors.New("unexpected /proc stat format")
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unexpected /proc stat format")
	}
	const clockTicks = 100 // USER_HZ on every Linux this runs on
	return (utime + stime) / clockTicks, nil
}

// peakRSSMB returns a process's VmHWM in MB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
