package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/version"
)

// signedRegister builds a register POST for workerURL signed by a (nil a
// = unsigned), with mutate applied to the request after signing.
func signedRegister(t *testing.T, a *authenticator, coordURL, workerURL string, mutate func(*http.Request)) *http.Request {
	t.Helper()
	body, _ := json.Marshal(RegisterRequest{URL: workerURL, Capacity: 2, EngineVersion: version.Engine})
	req, err := http.NewRequest(http.MethodPost, coordURL+PathRegister, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if a != nil {
		a.sign(req, body)
	}
	if mutate != nil {
		mutate(req)
	}
	return req
}

// decodeEnvelope parses a non-2xx fleet response as the standard /v1
// error envelope, failing the test on any shape violation.
func decodeEnvelope(t *testing.T, resp *http.Response) api.ErrorEnvelope {
	t.Helper()
	defer resp.Body.Close()
	var env api.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("response is not the error envelope: %v", err)
	}
	if env.APIVersion != api.Version {
		t.Errorf("envelope api_version = %q, want %q", env.APIVersion, api.Version)
	}
	if env.Error.Code == "" {
		t.Error("envelope error.code empty")
	}
	return env
}

// TestAuthRejectionTable drives the coordinator's register endpoint
// through the signature failure modes: missing, garbled, replayed
// (stale timestamp), future-dated, and tampered-body requests are all
// refused with the 401 envelope, and a correctly signed request is
// accepted.
func TestAuthRejectionTable(t *testing.T) {
	const token = "test-fleet-secret"
	c := NewCoordinator(Config{Token: token})
	ts := coordServer(t, c)
	good := newAuthenticator(token)

	cases := []struct {
		name   string
		auth   *authenticator
		mutate func(*http.Request)
		want   int
	}{
		{name: "signed", auth: good, want: http.StatusOK},
		{name: "missing signature", auth: nil, want: http.StatusUnauthorized},
		{name: "garbled signature", auth: good, want: http.StatusUnauthorized,
			mutate: func(r *http.Request) { r.Header.Set(authSignatureHeader, "not-hex-at-all") }},
		{name: "wrong token", auth: newAuthenticator("some-other-secret"), want: http.StatusUnauthorized},
		{name: "replayed (stale timestamp)", want: http.StatusUnauthorized,
			auth: &authenticator{token: []byte(token), now: func() time.Time { return time.Now().Add(-authMaxSkew - time.Minute) }}},
		{name: "future timestamp", want: http.StatusUnauthorized,
			auth: &authenticator{token: []byte(token), now: func() time.Time { return time.Now().Add(authMaxSkew + time.Minute) }}},
		{name: "tampered body", auth: good, want: http.StatusUnauthorized,
			mutate: func(r *http.Request) {
				tampered, _ := json.Marshal(RegisterRequest{URL: "http://evil", Capacity: 2, EngineVersion: version.Engine})
				r.ContentLength = int64(len(tampered))
				r.Body = io.NopCloser(bytes.NewReader(tampered))
			}},
	}
	rejections := uint64(0)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := signedRegister(t, tc.auth, ts.URL, "http://w-"+strings.ReplaceAll(tc.name, " ", "-"), tc.mutate)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.want)
			}
			if tc.want == http.StatusUnauthorized {
				rejections++
				env := decodeEnvelope(t, resp)
				if env.Error.Code != "unauthenticated" {
					t.Errorf("error.code = %q, want unauthenticated", env.Error.Code)
				}
			} else {
				resp.Body.Close()
			}
		})
	}
	if got := c.Stats.AuthRejections.Load(); got != rejections {
		t.Errorf("AuthRejections = %d, want %d", got, rejections)
	}
	// Only the correctly signed registration landed.
	if got := c.LiveWorkers(); got != 1 {
		t.Errorf("LiveWorkers = %d, want 1 (only the signed registration)", got)
	}
}

// TestWorkerAuth covers the worker side of the transport: its execute
// and cell-read endpoints refuse unsigned requests with the 401
// envelope, and a worker holding the wrong token never joins the
// coordinator's registry.
func TestWorkerAuth(t *testing.T) {
	const token = "worker-auth-secret"
	c := NewCoordinator(Config{Token: token})
	coord := coordServer(t, c)

	w := NewWorker(WorkerConfig{Coordinator: coord.URL, Token: "wrong-token", Capacity: 2, Heartbeat: 20 * time.Millisecond})
	wmux := http.NewServeMux()
	w.RegisterHandlers(wmux)
	wts := newTestServer(t, wmux)
	w.Start(wts.URL)
	t.Cleanup(w.Stop)

	// The mis-tokened worker's registrations are refused: it never
	// appears in the registry no matter how long it heartbeats.
	time.Sleep(60 * time.Millisecond)
	if got := c.LiveWorkers(); got != 0 {
		t.Fatalf("mis-tokened worker joined: LiveWorkers = %d", got)
	}
	if c.Stats.AuthRejections.Load() == 0 {
		t.Error("coordinator counted no auth rejections")
	}

	// The worker's own endpoints are guarded too (its token is
	// "wrong-token", so requests signed with no token at all fail).
	resp, err := http.Post(wts.URL+PathExecute, "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unsigned execute: status %d, want 401", resp.StatusCode)
	}
	if env := decodeEnvelope(t, resp); env.Error.Code != "unauthenticated" {
		t.Errorf("execute error.code = %q", env.Error.Code)
	}
	resp, err = http.Get(wts.URL + PathCells + "somekey")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unsigned cell read: status %d, want 401", resp.StatusCode)
	}
	resp.Body.Close()
	if got := w.Stats.AuthRejections.Load(); got != 2 {
		t.Errorf("worker AuthRejections = %d, want 2", got)
	}
}

// newTestServer mounts mux behind an httptest listener cleaned up with
// the test.
func newTestServer(t *testing.T, mux *http.ServeMux) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestEngineSkewEnvelope pins the 409 contract: the envelope code is
// engine_skew, the offending field is named, and Retry-After invites
// re-registration after redeploy.
func TestEngineSkewEnvelope(t *testing.T) {
	c := NewCoordinator(Config{})
	ts := coordServer(t, c)
	body, _ := json.Marshal(RegisterRequest{URL: "http://w1", Capacity: 2, EngineVersion: "skewed-v0"})
	resp, err := http.Post(ts.URL+PathRegister, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status %d, want 409", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "30" {
		t.Errorf("Retry-After = %q, want 30", ra)
	}
	env := decodeEnvelope(t, resp)
	if env.Error.Code != "engine_skew" || env.Error.Field != "engine_version" {
		t.Errorf("error = %+v, want code engine_skew field engine_version", env.Error)
	}
}

// TestWorkerCapacityRejection pins the 429 contract: an execute request
// beyond the worker's advertised capacity gets the over_capacity
// envelope with a Retry-After, and the worker never touches the plan.
func TestWorkerCapacityRejection(t *testing.T) {
	w := NewWorker(WorkerConfig{Capacity: 1})
	wmux := http.NewServeMux()
	w.RegisterHandlers(wmux)
	wts := newTestServer(t, wmux)

	// Occupy the single capacity slot directly; the next request is over.
	w.inflight.Add(1)
	defer w.inflight.Add(-1)
	payload, _ := json.Marshal(newBatch([]ExecuteRequest{execReq("c1")}))
	resp, err := http.Post(wts.URL+PathExecute, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want 1", ra)
	}
	env := decodeEnvelope(t, resp)
	if env.Error.Code != "over_capacity" {
		t.Errorf("error.code = %q, want over_capacity", env.Error.Code)
	}
	if got := w.Stats.Rejections.Load(); got != 1 {
		t.Errorf("Rejections = %d, want 1", got)
	}
}

// TestRequestIDEcho verifies the propagation contract on the worker's
// endpoints: an inbound X-Request-Id comes back on the response, even on
// errors.
func TestRequestIDEcho(t *testing.T) {
	w := NewWorker(WorkerConfig{Capacity: 2})
	wmux := http.NewServeMux()
	w.RegisterHandlers(wmux)
	wts := newTestServer(t, wmux)

	req, _ := http.NewRequest(http.MethodPost, wts.URL+PathExecute, strings.NewReader("not json"))
	req.Header.Set(api.RequestIDHeader, "r00000042")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(api.RequestIDHeader); got != "r00000042" {
		t.Errorf("echoed request id = %q, want r00000042", got)
	}
}
