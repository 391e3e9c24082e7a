package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// boot starts censysd on a /24 with no warmup on an ephemeral port, plus
// args, and returns its base URL and a stop function that cancels it and
// returns its exit code.
func boot(t *testing.T, args ...string) (base string, stop func() int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	outR, outW := io.Pipe()
	var stderr bytes.Buffer
	exit := make(chan int, 1)
	go func() {
		exit <- run(ctx, append([]string{"-universe", "10.9.0.0/24", "-days", "0", "-listen", "127.0.0.1:0"}, args...), outW, &stderr)
		outW.Close()
	}()

	// The listen address is only known once run prints it; keep draining
	// stdout afterwards so run never blocks on the pipe.
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(outR)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "serving on "); ok {
				addr <- a
			}
		}
		close(addr)
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			t.Fatalf("censysd exited %d before serving; stderr: %s", <-exit, stderr.String())
		}
		base = "http://" + a
	case <-time.After(time.Minute):
		t.Fatal("censysd never started serving")
	}
	return base, func() int {
		cancel()
		select {
		case code := <-exit:
			if code != 0 {
				t.Logf("stderr: %s", stderr.String())
			}
			return code
		case <-time.After(time.Minute):
			t.Fatal("censysd did not shut down after cancel")
			return -1
		}
	}
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestBootServeShutdown is the smoke test: boot, read /v2/metrics over a
// real socket, cancel, and require a clean exit.
func TestBootServeShutdown(t *testing.T) {
	base, stop := boot(t)
	if code, body := get(t, base+"/v2/metrics"); code != http.StatusOK || !bytes.Contains(body, []byte("\ncensys_")) {
		t.Fatalf("GET /v2/metrics: status %d, body %.200q; want 200 with a censys_ family", code, body)
	}
	if code := stop(); code != 0 {
		t.Fatalf("exit %d after cancel, want 0", code)
	}
}

// TestSearchOnlyThroughServingTier: search is served under /v2 only, behind
// the serving tier's authentication; there is no side door.
func TestSearchOnlyThroughServingTier(t *testing.T) {
	base, stop := boot(t, "-anonymous-tier", "")
	defer stop()
	if code, _ := get(t, base+"/v1/search?q=services.port:80"); code != http.StatusNotFound {
		t.Errorf("GET /v1/search: status %d, want 404", code)
	}
	if code, _ := get(t, base+"/v2/hosts/search?q=services.port:80"); code != http.StatusUnauthorized {
		t.Errorf("GET /v2/hosts/search without a key: status %d, want 401", code)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-nosuchflag"},
		{"-universe", "not-a-prefix"},
		{"-universe", "10.9.0.0/24", "-days", "0", "-cluster-nodes", "2", "-node-id", "5"},
		{"-universe", "10.9.0.0/24", "-days", "0", "-api-keys", "broken"},
		{"-universe", "10.9.0.0/24", "-days", "0", "-predict-budget", "-1"},
		{"-days", "-1"},
		{"-rate", "-1s"},
		{"-capacity", "0"},
		{"-capacity", "-5"},
		{"-cluster-nodes", "-1"},
		{"-node-id", "1"},
		{"-node-id", "0"},
		{"-predict=false", "-predict-budget", "5"},
	} {
		var stderr bytes.Buffer
		if code := run(context.Background(), args, io.Discard, &stderr); code != 2 || stderr.Len() == 0 {
			t.Errorf("run(%v) = %d, stderr %q; want 2 and a diagnostic", args, code, stderr.String())
		}
	}
}
