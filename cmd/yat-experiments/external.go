// Out-of-process wrapper deployments. Wrappers served from this process
// would share one heap with the mediator, which makes whole-process live-heap
// measurements attribute wrapper-side evaluation (a pushed plan binds the
// whole extent at the source) to the mediator. The memory assertions
// instead spawn the real wrapper binaries as child processes serving the
// same generated workload, so the runtime's heap metrics see exactly the
// mediator's live set — the quantity the streaming engine bounds.
package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"time"

	"repro/internal/datagen"
	"repro/internal/mediator"
	"repro/internal/waiswrap"
	"repro/internal/wire"
)

// ensureWrappers returns a directory holding the o2-wrapper and
// xmlwais-wrapper binaries. With dir != "" the binaries must already be
// there (the Makefile builds them); with dir == "" they are built once into
// a temp dir with the local toolchain and removed by the cleanup func.
func ensureWrappers(dir string) (string, func(), error) {
	if dir != "" {
		for _, b := range []string{"o2-wrapper", "xmlwais-wrapper"} {
			if _, err := os.Stat(filepath.Join(dir, b)); err != nil {
				return "", nil, fmt.Errorf("wrappers dir %s: %w", dir, err)
			}
		}
		return dir, func() {}, nil
	}
	tmp, err := os.MkdirTemp("", "yat-wrappers-")
	if err != nil {
		return "", nil, err
	}
	// Import paths (not ./-relative ones) so the build works from any
	// working directory inside the module, e.g. under go test.
	cmd := exec.Command("go", "build", "-o", tmp, "repro/cmd/o2-wrapper", "repro/cmd/xmlwais-wrapper")
	if out, err := cmd.CombinedOutput(); err != nil {
		os.RemoveAll(tmp)
		return "", nil, fmt.Errorf("building wrappers: %v\n%s", err, out)
	}
	return tmp, func() { os.RemoveAll(tmp) }, nil
}

var portRe = regexp.MustCompile(`is running at \S*:(\d+)`)

// spawnWrapper starts one wrapper binary on an ephemeral port and parses
// the bound port from its startup line.
func spawnWrapper(bin string, args ...string) (addr string, stop func(), err error) {
	cmd := exec.Command(bin, args...)
	out, err := cmd.StdoutPipe()
	if err != nil {
		return "", nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return "", nil, err
	}
	stop = func() {
		cmd.Process.Kill()
		cmd.Wait()
	}
	ready := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if m := portRe.FindStringSubmatch(sc.Text()); m != nil {
				ready <- m[1]
				break
			}
		}
		close(ready)
		// Keep draining so the child never blocks on a full pipe.
		for sc.Scan() {
		}
	}()
	select {
	case port, ok := <-ready:
		if !ok {
			stop()
			return "", nil, fmt.Errorf("%s exited before reporting its port", bin)
		}
		if _, err := strconv.Atoi(port); err != nil {
			stop()
			return "", nil, fmt.Errorf("%s reported port %q", bin, port)
		}
		return "127.0.0.1:" + port, stop, nil
	case <-time.After(30 * time.Second):
		stop()
		return "", nil, fmt.Errorf("%s did not report a port within 30s", bin)
	}
}

// connectWire dials a wrapper and registers it (interface and exported
// structures) with the mediator.
func connectWire(m *mediator.Mediator, addr string) (func(), error) {
	c, err := wire.DialWith(context.Background(), addr, wire.Options{})
	if err != nil {
		return nil, err
	}
	iface, err := c.ImportInterface()
	if err != nil {
		c.Close()
		return nil, err
	}
	if err := m.Connect(c, iface); err != nil {
		c.Close()
		return nil, err
	}
	sts, err := c.ImportStructures()
	if err != nil {
		c.Close()
		return nil, err
	}
	for doc, ref := range sts {
		m.ImportStructure(doc, ref.Model, ref.Pattern)
	}
	return func() { c.Close() }, nil
}

// externalDeploy spawns a wrapper pair serving the n-artifact workload as
// child processes and connects a fresh mediator to them, with
// yat.NewCulturalMediator's view program and assumptions. Only the mediator
// lives in this process.
func externalDeploy(dir string, n int) (*mediator.Mediator, func(), error) {
	var closers []func()
	teardown := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	o2Addr, stopO2, err := spawnWrapper(filepath.Join(dir, "o2-wrapper"),
		"-port", "0", "-artifacts", strconv.Itoa(n))
	if err != nil {
		return nil, nil, err
	}
	closers = append(closers, stopO2)
	waisAddr, stopWais, err := spawnWrapper(filepath.Join(dir, "xmlwais-wrapper"),
		"-port", "0", "-works", strconv.Itoa(n))
	if err != nil {
		teardown()
		return nil, nil, err
	}
	closers = append(closers, stopWais)
	m := mediator.New()
	for _, addr := range []string{o2Addr, waisAddr} {
		cl, err := connectWire(m, addr)
		if err != nil {
			teardown()
			return nil, nil, err
		}
		closers = append(closers, cl)
	}
	m.RegisterFunc("contains", waiswrap.Contains)
	if err := m.LoadProgram(datagen.View1Src); err != nil {
		teardown()
		return nil, nil, err
	}
	m.Assume("artifacts", "works", "$y > 1800")
	m.Assume("persons", "works", "$y > 1800")
	return m, teardown, nil
}
