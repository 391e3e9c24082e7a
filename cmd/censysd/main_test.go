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

// TestBootServeShutdown is the smoke test: boot on an ephemeral port, read
// /v2/metrics over a real socket, cancel, and require a clean exit.
func TestBootServeShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	outR, outW := io.Pipe()
	var stderr bytes.Buffer
	exit := make(chan int, 1)
	go func() {
		exit <- run(ctx, []string{"-universe", "10.9.0.0/24", "-days", "0", "-listen", "127.0.0.1:0"}, outW, &stderr)
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
	var base string
	select {
	case a, ok := <-addr:
		if !ok {
			t.Fatalf("censysd exited %d before serving; stderr: %s", <-exit, stderr.String())
		}
		base = "http://" + a
	case <-time.After(time.Minute):
		t.Fatal("censysd never started serving")
	}

	resp, err := http.Get(base + "/v2/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("\ncensys_")) {
		t.Fatalf("GET /v2/metrics: status %d, body %.200q; want 200 with a censys_ family", resp.StatusCode, body)
	}

	cancel()
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit %d after cancel, want 0; stderr: %s", code, stderr.String())
		}
	case <-time.After(time.Minute):
		t.Fatal("censysd did not shut down after cancel")
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-nosuchflag"},
		{"-universe", "not-a-prefix"},
		{"-universe", "10.9.0.0/24", "-days", "0", "-cluster-nodes", "2", "-node-id", "5"},
		{"-universe", "10.9.0.0/24", "-days", "0", "-api-keys", "broken"},
		{"-universe", "10.9.0.0/24", "-days", "0", "-predict-budget", "-1"},
	} {
		var stderr bytes.Buffer
		if code := run(context.Background(), args, io.Discard, &stderr); code != 2 || stderr.Len() == 0 {
			t.Errorf("run(%v) = %d, stderr %q; want 2 and a diagnostic", args, code, stderr.String())
		}
	}
}
