package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// Constraint sources in the textio format (see internal/textio).
const (
	// satSource has three seam solutions for v1·v2 ⊆ {ab}.
	satSource = "const c := re /ab/;\nv1 . v2 <= c;\n"
	// unsatSource is the paper's fixed-filter example: v1 is all digits but
	// nid_·v1 must contain a quote.
	unsatSource = "const digits := match /^[\\d]+$/;\nconst quote := match /'/;\nv1 <= digits;\n\"nid_\" . v1 <= quote;\n"
	// bombSource determinizes (a|b)*a(a|b){24} (~2^24 DFA states): any solve
	// trips a small state budget or deadline long before finishing.
	bombSource = "const unsafe := re /(a|b)*a(a|b){24}/;\nv1 . v2 <= unsafe;\n"
)

// newTestServer builds a Server plus an httptest front end and tears both
// down at cleanup (draining first so no worker outlives the test).
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain at cleanup: %v", err)
		}
	})
	return s, ts
}

// postSolve sends body to /solve and decodes the JSON response into out.
func postSolve(t *testing.T, ts *httptest.Server, contentType, body string, out any) int {
	t.Helper()
	resp, err := http.Post(ts.URL+"/solve", contentType, strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /solve: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decoding response %q: %v", raw, err)
		}
	}
	return resp.StatusCode
}

func TestSolveRawTextSat(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var resp SolveResponse
	if code := postSolve(t, ts, "text/plain", satSource, &resp); code != http.StatusOK {
		t.Fatalf("status = %d, want 200", code)
	}
	if resp.Status != StatusSat {
		t.Fatalf("Status = %q, want %q (resp %+v)", resp.Status, StatusSat, resp)
	}
	if len(resp.Assignments) == 0 {
		t.Fatal("no assignments on a satisfiable system")
	}
	if resp.Degraded != nil {
		t.Errorf("Degraded = %+v on a clean solve", resp.Degraded)
	}
	if resp.Usage.States == 0 {
		t.Error("Usage.States = 0: no accounting reported")
	}
	for _, a := range resp.Assignments {
		w := a["v1"].Witness + a["v2"].Witness
		if w != "ab" {
			t.Errorf("witness concatenation = %q, want \"ab\"", w)
		}
	}
}

func TestSolveJSONWithOptions(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body, _ := json.Marshal(&SolveRequest{
		System:  satSource,
		Options: RequestOptions{MaxSolutions: 1},
	})
	var resp SolveResponse
	if code := postSolve(t, ts, "application/json", string(body), &resp); code != http.StatusOK {
		t.Fatalf("status = %d, want 200", code)
	}
	if resp.Status != StatusSat {
		t.Fatalf("Status = %q, want %q", resp.Status, StatusSat)
	}
	if len(resp.Assignments) != 1 {
		t.Fatalf("len(Assignments) = %d, want 1 (max_solutions)", len(resp.Assignments))
	}
	if !resp.Truncated {
		t.Error("Truncated = false after max_solutions cut a 3-solution system to 1")
	}
}

func TestSolveUnsat(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var resp SolveResponse
	if code := postSolve(t, ts, "text/plain", unsatSource, &resp); code != http.StatusOK {
		t.Fatalf("status = %d, want 200", code)
	}
	if resp.Status != StatusUnsat {
		t.Fatalf("Status = %q, want %q", resp.Status, StatusUnsat)
	}
	if len(resp.Assignments) != 0 {
		t.Errorf("unsat response carries %d assignments", len(resp.Assignments))
	}
}

func TestSolveParseError(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var resp ErrorResponse
	if code := postSolve(t, ts, "text/plain", "const broken :=", &resp); code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", code)
	}
	if resp.Code != CodeParseError {
		t.Errorf("Code = %q, want %q", resp.Code, CodeParseError)
	}
	if resp.Error == "" {
		t.Error("empty error message")
	}
	if got := s.stats.parseErrors.Load(); got != 1 {
		t.Errorf("parseErrors = %d, want 1", got)
	}
}

// TestSolveRejectsUnknownJSONFields also covers the solver ablation knobs,
// which are not part of the wire protocol: a request sending one is
// rejected rather than silently solved with the defaults.
func TestSolveRejectsUnknownJSONFields(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, body := range []string{
		`{"system": "x <= c;", "bogus": 1}`,
		`{"system": "x <= c;", "options": {"minimize": true}}`,
		`{"system": "x <= c;", "options": {"raw_constants": true}}`,
		`{"system": "x <= c;", "options": {"no_maximalize": true}}`,
	} {
		var resp ErrorResponse
		code := postSolve(t, ts, "application/json", body, &resp)
		if code != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400", body, code)
		}
		if resp.Code != CodeBadRequest {
			t.Errorf("%s: Code = %q, want %q", body, resp.Code, CodeBadRequest)
		}
	}
}

func TestSolveRejectsNegativeOptions(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var resp ErrorResponse
	code := postSolve(t, ts, "application/json", `{"system": "x", "options": {"max_states": -1}}`, &resp)
	if code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", code)
	}
}

func TestSolveBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 64})
	big := strings.Repeat("# padding\n", 32) + satSource
	var resp ErrorResponse
	code := postSolve(t, ts, "text/plain", big, &resp)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", code)
	}
	if resp.Code != CodeBadRequest {
		t.Errorf("Code = %q, want %q", resp.Code, CodeBadRequest)
	}
}

func TestSolveExhaustedReportsDegraded(t *testing.T) {
	// The server ceiling (3000 states) clamps whatever the client asks, so
	// the bomb trips max-states and the response degrades to unknown.
	s, ts := newTestServer(t, Config{MaxStates: 3000})
	body, _ := json.Marshal(&SolveRequest{
		System:  bombSource,
		Options: RequestOptions{MaxStates: 1 << 40}, // asks beyond the ceiling
	})
	var resp SolveResponse
	if code := postSolve(t, ts, "application/json", string(body), &resp); code != http.StatusOK {
		t.Fatalf("status = %d, want 200", code)
	}
	if resp.Status != StatusUnknown {
		t.Fatalf("Status = %q, want %q (exhausted unsat proves nothing)", resp.Status, StatusUnknown)
	}
	if resp.Degraded == nil {
		t.Fatal("Degraded = nil after a budget trip")
	}
	if resp.Degraded.Kind != "max-states" {
		t.Errorf("Degraded.Kind = %q, want %q", resp.Degraded.Kind, "max-states")
	}
	if !resp.Usage.Exhausted {
		t.Error("Usage.Exhausted = false after a trip")
	}
	if got := s.stats.exhausted.Load(); got != 1 {
		t.Errorf("exhausted = %d, want 1", got)
	}
}

func TestSolveDeadlineDegradesNotFails(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body, _ := json.Marshal(&SolveRequest{
		System:  bombSource,
		Options: RequestOptions{TimeoutMS: 150, MaxStates: -0}, // server default caps still apply
	})
	var resp SolveResponse
	start := time.Now()
	code := postSolve(t, ts, "application/json", string(body), &resp)
	if code != http.StatusOK {
		t.Fatalf("status = %d, want 200", code)
	}
	if resp.Status != StatusUnknown {
		t.Fatalf("Status = %q, want %q", resp.Status, StatusUnknown)
	}
	if resp.Degraded == nil || resp.Degraded.Kind != "deadline" {
		t.Fatalf("Degraded = %+v, want kind deadline", resp.Degraded)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("150ms deadline honored only after %v", elapsed)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /solve status = %d, want 405", resp.StatusCode)
	}
}

func TestHealthzAlwaysOK(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, phase := range []string{"accepting", "draining"} {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz during %s = %d, want 200 (liveness is not readiness)", phase, resp.StatusCode)
		}
		if phase == "accepting" {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			if err := s.Drain(ctx); err != nil {
				t.Fatalf("drain: %v", err)
			}
			cancel()
		}
	}
}

func TestReadyzFlipsOnDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz while accepting = %d, want 200", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 readyz missing Retry-After")
	}

	// New solves are refused with the draining code.
	var er ErrorResponse
	if code := postSolve(t, ts, "text/plain", satSource, &er); code != http.StatusServiceUnavailable {
		t.Fatalf("solve after drain = %d, want 503", code)
	}
	if er.Code != CodeDraining {
		t.Errorf("Code = %q, want %q", er.Code, CodeDraining)
	}
}

func TestStatuszCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postSolve(t, ts, "text/plain", satSource, nil)
	postSolve(t, ts, "text/plain", unsatSource, nil)
	postSolve(t, ts, "text/plain", "const broken", nil)

	// A worker releases its in-flight slot just after it delivers the
	// answer, so a client can read the response a moment before the count
	// drops: poll until it settles rather than racing the worker.
	var st StatusResponse
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		resp, err := http.Get(ts.URL + "/statusz")
		if err != nil {
			t.Fatal(err)
		}
		st = StatusResponse{}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decoding statusz: %v", err)
		}
		if st.InFlight == 0 || time.Now().After(deadline) {
			break
		}
	}
	if st.State != "accepting" {
		t.Errorf("State = %q, want accepting", st.State)
	}
	if st.Requests != 3 {
		t.Errorf("Requests = %d, want 3", st.Requests)
	}
	if st.Sat != 1 || st.Unsat != 1 || st.ParseErrors != 1 {
		t.Errorf("Sat/Unsat/ParseErrors = %d/%d/%d, want 1/1/1", st.Sat, st.Unsat, st.ParseErrors)
	}
	if st.Workers <= 0 || st.QueueCap <= 0 {
		t.Errorf("Workers = %d, QueueCap = %d; want positive", st.Workers, st.QueueCap)
	}
	if st.InFlight != 0 {
		t.Errorf("InFlight = %d after all requests finished", st.InFlight)
	}
}

func TestClientDisconnectCancelsSolve(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxStates: -1, MaxSteps: -1})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/solve", strings.NewReader(bombSource))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	if _, err := http.DefaultClient.Do(req); err == nil {
		t.Fatal("expected the client-side cancel to surface as an error")
	}
	// The server notices the dead context at the next budget checkpoint and
	// counts the abandonment rather than leaking the worker.
	deadline := time.Now().Add(10 * time.Second)
	for s.stats.canceled.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("canceled counter never incremented after client disconnect")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := s.inflight.Load(); got != 0 {
		// inflight drops when the worker releases; give it a beat.
		time.Sleep(100 * time.Millisecond)
		if got = s.inflight.Load(); got != 0 {
			t.Errorf("inflight = %d after disconnect, want 0", got)
		}
	}
}

func TestRequestTimeoutClamp(t *testing.T) {
	s := New(Config{DefaultTimeout: 2 * time.Second, MaxTimeout: 5 * time.Second})
	defer drainNow(t, s)
	cases := []struct {
		ms   int64
		want time.Duration
	}{
		{0, 2 * time.Second},      // no ask: default
		{1000, time.Second},       // in range: honored
		{60_000, 5 * time.Second}, // beyond ceiling: clamped
	}
	for _, c := range cases {
		if got := s.requestTimeout(c.ms); got != c.want {
			t.Errorf("requestTimeout(%d) = %v, want %v", c.ms, got, c.want)
		}
	}
}

func TestClampLimit(t *testing.T) {
	cases := []struct {
		req, ceiling, want int64
	}{
		{0, 1000, 1000},  // no ask: ceiling
		{500, 1000, 500}, // in range: honored
		{2000, 1000, 1000},
		{0, 0, 0}, // no ask, no ceiling: unlimited
		{77, 0, 77},
		{-5, 0, 0}, // negative ask, no ceiling: unlimited
	}
	for _, c := range cases {
		if got := clampLimit(c.req, c.ceiling); got != c.want {
			t.Errorf("clampLimit(%d, %d) = %d, want %d", c.req, c.ceiling, got, c.want)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Workers < 2 {
		t.Errorf("Workers = %d, want >= 2", cfg.Workers)
	}
	if cfg.QueueDepth != 4*cfg.Workers {
		t.Errorf("QueueDepth = %d, want %d", cfg.QueueDepth, 4*cfg.Workers)
	}
	if cfg.MaxStates != 4<<20 || cfg.MaxSteps != 1<<20 {
		t.Errorf("MaxStates/MaxSteps = %d/%d, want defaults", cfg.MaxStates, cfg.MaxSteps)
	}
	neg := Config{MaxStates: -1, MaxSteps: -1}.withDefaults()
	if neg.MaxStates != 0 || neg.MaxSteps != 0 {
		t.Errorf("negative caps → %d/%d, want 0/0 (unlimited)", neg.MaxStates, neg.MaxSteps)
	}
}

func TestIncidentIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := newIncidentID()
		if !strings.HasPrefix(id, "inc-") {
			t.Fatalf("id %q missing prefix", id)
		}
		if seen[id] {
			t.Fatalf("duplicate incident id %q", id)
		}
		seen[id] = true
	}
}

func TestDrainIdempotent(t *testing.T) {
	s := New(Config{})
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := s.Drain(ctx); err != nil {
			t.Fatalf("drain %d: %v", i, err)
		}
		cancel()
	}
	if got := stateName(s.state.Load()); got != "drained" {
		t.Errorf("state = %q, want drained", got)
	}
}

func drainNow(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Errorf("drain: %v", err)
	}
}

// TestRawBodyRoundTrip makes sure a body with no Content-Type at all is
// treated as raw source, matching curl's default for --data-binary.
func TestRawBodyRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/solve", bytes.NewReader([]byte(satSource)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Del("Content-Type")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Status != StatusSat {
		t.Fatalf("Status = %q, want sat", sr.Status)
	}
}
