package partserver

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// decodeBody decodes a JSON response body and closes it.
func decodeBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func shutdownServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// solveOK runs a default solve on a finished job and fails the test on
// anything but 200.
func solveOK(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs/"+id+"/solve", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve on %s: %d", id, resp.StatusCode)
	}
}

// planOf reports whether the job's result currently holds a compiled
// plan.
func planOf(t *testing.T, s *Server, id string) bool {
	t.Helper()
	j, ok := s.getJob(id)
	if !ok {
		t.Fatalf("job %s vanished", id)
	}
	s.mu.Lock()
	res := j.result
	s.mu.Unlock()
	if res == nil {
		t.Fatalf("job %s has no result", id)
	}
	res.mu.Lock()
	defer res.mu.Unlock()
	return res.sess != nil
}

// TestCacheEvictionReleasesPlan pins the plan lifecycle: evicting a
// decomposition from the LRU must close its compiled plan (so its
// memory is freed promptly), and a job record that still
// references the evicted result must transparently rebuild the plan on
// its next solve.
func TestCacheEvictionReleasesPlan(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, CacheSize: 1})

	st1, code := postJSON(t, ts, fleetBody(1))
	if code != http.StatusAccepted {
		t.Fatalf("POST: %d", code)
	}
	st1 = pollDone(t, ts, st1.ID)
	solveOK(t, ts, st1.ID)
	if !planOf(t, s, st1.ID) {
		t.Fatal("first solve did not compile a plan")
	}

	// A second, distinct decomposition evicts the first from the
	// one-entry cache; the eviction callback must release the plan.
	st2, code := postJSON(t, ts, fleetBody(2))
	if code != http.StatusAccepted {
		t.Fatalf("POST: %d", code)
	}
	pollDone(t, ts, st2.ID)
	if n := metricValue(t, ts, "partserver_cache_evictions_total"); n != 1 {
		t.Fatalf("evictions = %d, want 1", n)
	}
	if planOf(t, s, st1.ID) {
		t.Fatal("evicted result still holds its compiled plan")
	}

	// The evicted job is still servable: the next solve rebuilds.
	solveOK(t, ts, st1.ID)
	if !planOf(t, s, st1.ID) {
		t.Fatal("solve after eviction did not rebuild the plan")
	}
}

// TestCoalescedSurvivesSubmitterDisconnect submits a job whose HTTP
// request context is canceled while the computation runs — the client
// walked away — with a second client coalesced onto the same in-flight
// job. The disconnect must not cancel or poison the shared computation:
// the coalesced client still gets the finished result.
func TestCoalescedSurvivesSubmitterDisconnect(t *testing.T) {
	block := make(chan struct{})
	var once bool
	s, ts := testServer(t, Config{Workers: 1})
	s.beforePartition = func(*job) {
		if !once {
			once = true
			<-block
		}
	}
	t.Cleanup(func() {
		select {
		case <-block:
		default:
			close(block)
		}
	})

	// Submit with a cancellable request context.
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	req, err := http.NewRequestWithContext(ctx1, http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(e2eBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st1 JobStatus
	decodeBody(t, resp, &st1)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST: %d", resp.StatusCode)
	}
	waitState(t, s, st1.ID, JobRunning)

	// A second client submits the identical request and coalesces.
	st2, code := postJSON(t, ts, e2eBody)
	if code != http.StatusOK || !st2.Coalesced || st2.ID != st1.ID {
		t.Fatalf("duplicate should coalesce onto %s, got code %d status %+v", st1.ID, code, st2)
	}

	// The submitter disconnects mid-computation, then the computation is
	// allowed to proceed.
	cancel1()
	time.Sleep(20 * time.Millisecond)
	close(block)

	st := pollDone(t, ts, st1.ID)
	if st.State != JobDone {
		t.Fatalf("job ended %s after submitter disconnect", st.State)
	}
	// The shared result is intact: the surviving client can solve on it.
	solveOK(t, ts, st1.ID)
}
