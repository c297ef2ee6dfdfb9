package frontdoor

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// QueryRequest is the POST /query body. The tenant id comes from the
// X-Tenant header, falling back to the body's field, falling back to
// "anonymous" — every request is attributed to some tenant, so the
// anonymous pool shares one set of limits instead of bypassing admission.
type QueryRequest struct {
	Query     string `json:"query"`
	Tenant    string `json:"tenant,omitempty"`
	TimeoutMS int    `json:"timeout_ms,omitempty"`
}

// Streamed response lines (NDJSON). The first line carries the columns,
// then one line per row, then exactly one terminal line: done or error.
type colsLine struct {
	Cols []string `json:"cols"`
}

type rowLine struct {
	Row []string `json:"row"`
}

type doneLine struct {
	Done      bool    `json:"done"`
	Rows      int     `json:"rows"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Pushes    int     `json:"pushes"`
	Fetches   int     `json:"fetches"`
	Partial   int     `json:"partial_sources,omitempty"`
}

type errLine struct {
	Error  string `json:"error"`
	Code   string `json:"code"`
	Tenant string `json:"tenant,omitempty"`
}

// maxQueryBytes bounds the POST /query body, which is decoded before
// admission: without it any tenant could make the door buffer an arbitrarily
// large request without touching its rate limit.
const maxQueryBytes = 1 << 20

// shedStatus maps a shed code to its HTTP status: rate limiting is the
// client's pace (429), queue exhaustion is the service's capacity (503).
func shedStatus(code string) int {
	if code == ShedRateLimited {
		return http.StatusTooManyRequests
	}
	return http.StatusServiceUnavailable
}

// Handler returns the front door's HTTP surface:
//
//	POST /query   — execute a query, stream rows as NDJSON
//	GET  /healthz — mediator liveness + per-source breaker states
func (d *Door) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", d.handleQuery)
	mux.HandleFunc("/healthz", d.handleHealth)
	return mux
}

func (d *Door) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST only", "")
		return
	}
	var req QueryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBytes)).Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge, "query_too_large",
				fmt.Sprintf("request body exceeds %d bytes", maxQueryBytes), "")
			return
		}
		httpError(w, http.StatusBadRequest, "bad_request", "invalid JSON body: "+err.Error(), "")
		return
	}
	if req.Query == "" {
		httpError(w, http.StatusBadRequest, "bad_request", "empty query", "")
		return
	}
	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = req.Tenant
	}
	if tenant == "" {
		tenant = "anonymous"
	}

	start := time.Now()
	release, err := d.Admit(r.Context(), tenant)
	if err != nil {
		var shed *ShedError
		if errors.As(err, &shed) {
			httpError(w, shedStatus(shed.Code), shed.Code, shed.Error(), tenant)
			return
		}
		httpError(w, http.StatusRequestTimeout, "canceled", err.Error(), tenant)
		return
	}
	defer release()

	opts := d.exec
	if t := time.Duration(req.TimeoutMS) * time.Millisecond; t > 0 && t < opts.Timeout {
		opts.Timeout = t
	}

	d.count("fd_queries", tenant)
	s, err := d.med.StreamContext(r.Context(), req.Query, opts)
	if err != nil {
		d.count("fd_errors", tenant)
		httpError(w, http.StatusBadRequest, "query_error", err.Error(), tenant)
		return
	}
	defer s.Close()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	_ = enc.Encode(colsLine{Cols: s.Cols()})
	if flusher != nil {
		flusher.Flush()
	}

	// Rows flow chunk by chunk off the mediator's bounded stream; the
	// encoder writes straight to the response so memory stays flat and the
	// client sees first rows before the query finishes.
	rows := 0
	for chunk := range s.Chunks() {
		for _, row := range chunk.Rows {
			line := rowLine{Row: make([]string, len(row))}
			for i, c := range row {
				line.Row[i] = c.String()
			}
			if err := enc.Encode(line); err != nil {
				// Client went away: drain via Close (deferred) and stop.
				d.count("fd_client_gone", tenant)
				return
			}
			rows++
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	res, err := s.Result()
	elapsed := time.Since(start)
	d.observe("fd_latency_ms", tenant, float64(elapsed.Microseconds())/1000)
	if err != nil {
		// Too late for an HTTP status — the terminal NDJSON line carries
		// the failure instead.
		d.count("fd_errors", tenant)
		_ = enc.Encode(errLine{Error: err.Error(), Code: "exec_error", Tenant: tenant})
		return
	}
	if d.metrics != nil {
		d.metrics.TenantCounter("fd_rows", tenant).Add(int64(rows))
	}
	_ = enc.Encode(doneLine{
		Done:      true,
		Rows:      rows,
		ElapsedMS: float64(elapsed.Microseconds()) / 1000,
		Pushes:    res.Stats.SourcePushes,
		Fetches:   res.Stats.SourceFetches,
		Partial:   len(res.SourceErrors),
	})
	if flusher != nil {
		flusher.Flush()
	}
}

func (d *Door) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET only", "")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"ok":      true,
		"sources": d.med.Health(),
	})
}

func httpError(w http.ResponseWriter, status int, code, msg, tenant string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errLine{Error: msg, Code: code, Tenant: tenant})
}
