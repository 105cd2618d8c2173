package cluster

// Batch routing: POST /v1/devices:decide-batch carries events for many
// devices, so the edge cannot route it with one ring lookup the way a
// device-scoped request is routed. Instead it re-buckets the events by
// owning node, serves its own bucket through the local fleet handler,
// forwards each remote bucket as a sub-batch (marked with
// X-Clr-Forwarded, preserving the single-hop guarantee per event), and
// merges the answers back in request order. A sub-batch that fails at
// the transport turns into per-event 502 entries — the rest of the
// batch is unaffected. Batches are always proxied, even in redirect
// mode: a 307 can point at only one owner, and a batch has many.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"clrdse/internal/fleet"
	"clrdse/internal/obs"
)

// batchPath is the batch decide endpoint (":" is a literal path byte,
// so deviceFor's /v1/devices/{id} parsing must never see it).
const batchPath = "/v1/devices:decide-batch"

// batchBucket is one owning node's slice of a batch: the events bound
// for it and their indices in the original request.
type batchBucket struct {
	owner  string
	idx    []int
	events []fleet.BatchEventJSON
}

// routeBatch handles a decide-batch request at the cluster edge.
func (n *Node) routeBatch(w http.ResponseWriter, r *http.Request, next http.Handler) {
	w.Header().Set(NodeHeader, n.self)
	// A forwarded sub-batch was already bucketed by the sender: every
	// event in it is ours (single hop, split views cannot loop it).
	if r.Header.Get(ForwardedHeader) != "" {
		next.ServeHTTP(w, r)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, n.maxBody+1))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "cluster: reading batch body: " + err.Error()})
		return
	}
	if int64(len(body)) > n.maxBody {
		writeJSON(w, http.StatusRequestEntityTooLarge, map[string]string{"error": fmt.Sprintf("cluster: batch body exceeds %d bytes", n.maxBody)})
		return
	}
	binWire := strings.HasPrefix(r.Header.Get("Content-Type"), fleet.BinContentType)
	var events []fleet.BatchEventJSON
	if binWire {
		events, err = fleet.DecodeBatchRequest(body, nil)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
	} else {
		// Mirror the fleet handler's strict decode (unknown fields and
		// trailing data rejected) so one-node and many-node clusters
		// answer malformed batches identically.
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var req fleet.BatchRequestJSON
		if err := dec.Decode(&req); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "invalid request body: " + err.Error()})
			return
		}
		if _, err := dec.Token(); !errors.Is(err, io.EOF) {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "invalid request body: trailing data after JSON value"})
			return
		}
		events = req.Events
	}
	if len(events) > fleet.MaxBatchEvents {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("batch of %d events exceeds the %d-event cap", len(events), fleet.MaxBatchEvents)})
		return
	}

	ring, urls := n.view()
	draining := n.draining.Load()
	byOwner := make(map[string]*batchBucket)
	var buckets []*batchBucket // first-appearance order, not map order
	for i := range events {
		owner := n.self
		if events[i].Device != "" {
			// Per-event drain semantics match the single-event router: a
			// device still registered here during a drain is served
			// locally until its handoff; empty IDs stay local so the
			// fleet handler's validation answers them.
			owner = ring.Owner(events[i].Device)
			if owner != n.self && draining && n.reg.Has(events[i].Device) {
				owner = n.self
			}
		}
		b := byOwner[owner]
		if b == nil {
			b = &batchBucket{owner: owner}
			byOwner[owner] = b
			buckets = append(buckets, b)
		}
		b.idx = append(b.idx, i)
		b.events = append(b.events, events[i])
	}

	// Everything ours: hand the original bytes through unchanged.
	if len(buckets) == 1 && buckets[0].owner == n.self {
		r.Body = io.NopCloser(bytes.NewReader(body))
		r.ContentLength = int64(len(body))
		next.ServeHTTP(w, r)
		return
	}

	// Fan out one sub-batch per owner; each writes a disjoint set of
	// result slots, so no synchronisation beyond the join is needed.
	results := make([]fleet.BatchResultJSON, len(events))
	var wg sync.WaitGroup
	for _, b := range buckets {
		wg.Add(1)
		go func(b *batchBucket) {
			defer wg.Done()
			n.decideSubBatch(r, next, binWire, b, urls[b.owner], results)
		}(b)
	}
	wg.Wait()

	if binWire {
		out, err := fleet.AppendBatchResponse(nil, results)
		if err != nil {
			writeJSON(w, http.StatusBadGateway, map[string]string{"error": "cluster: encoding batch response: " + err.Error()})
			return
		}
		w.Header().Set("Content-Type", fleet.BinContentType)
		w.Header().Set("Content-Length", strconv.Itoa(len(out)))
		w.WriteHeader(http.StatusOK)
		//lint:allow errdrop a response-write failure means the client is gone; there is no one left to tell
		_, _ = w.Write(out)
		return
	}
	writeJSON(w, http.StatusOK, fleet.BatchResponseJSON{Results: results})
}

// failBucket fills a bucket's result slots with one error.
func failBucket(results []fleet.BatchResultJSON, idx []int, status int, msg string) {
	for _, i := range idx {
		results[i] = fleet.BatchResultJSON{Status: status, Error: msg}
	}
}

// decideSubBatch scores one bucket — through the local handler for our
// own bucket, over one forward hop for a peer's — and scatters its
// results into the full batch's slots.
func (n *Node) decideSubBatch(r *http.Request, next http.Handler, binWire bool, b *batchBucket, ownerURL string, results []fleet.BatchResultJSON) {
	var sub []byte
	var err error
	if binWire {
		sub, err = fleet.AppendBatchRequest(nil, b.events)
	} else {
		sub, err = json.Marshal(fleet.BatchRequestJSON{Events: b.events})
	}
	if err != nil {
		failBucket(results, b.idx, http.StatusBadGateway, "cluster: encoding sub-batch: "+err.Error())
		return
	}
	ct := "application/json"
	if binWire {
		ct = fleet.BinContentType
	}

	url := batchPath
	if b.owner != n.self {
		url = ownerURL + batchPath
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, url, bytes.NewReader(sub))
	if err != nil {
		failBucket(results, b.idx, http.StatusBadGateway, "cluster: building sub-batch: "+err.Error())
		return
	}
	req.Header.Set("Content-Type", ct)
	req.Header.Set(obs.TraceHeader, r.Header.Get(obs.TraceHeader))
	var status int
	var respBody []byte
	if b.owner == n.self {
		rec := &bufResponseWriter{h: make(http.Header), status: http.StatusOK}
		next.ServeHTTP(rec, req)
		status, respBody = rec.status, rec.buf.Bytes()
	} else {
		req.Header.Set(ForwardedHeader, n.self)
		resp, err := n.httpc.Do(req)
		if err != nil {
			n.forwardErrs.Inc()
			failBucket(results, b.idx, http.StatusBadGateway, "cluster: forward to owner failed: "+err.Error())
			return
		}
		respBody, err = io.ReadAll(resp.Body)
		//lint:allow errdrop close after a full read; drain errors already surfaced via ReadAll
		resp.Body.Close()
		if err != nil {
			n.forwardErrs.Inc()
			failBucket(results, b.idx, http.StatusBadGateway, "cluster: reading owner response: "+err.Error())
			return
		}
		n.forwards.Inc()
		status = resp.StatusCode
	}
	if status != http.StatusOK {
		failBucket(results, b.idx, http.StatusBadGateway,
			fmt.Sprintf("cluster: owner %s rejected sub-batch (status %d): %s", b.owner, status, strings.TrimSpace(string(respBody))))
		return
	}
	var subResults []fleet.BatchResultJSON
	if binWire {
		subResults, err = fleet.DecodeBatchResponse(respBody, nil)
	} else {
		var br fleet.BatchResponseJSON
		err = json.Unmarshal(respBody, &br)
		subResults = br.Results
	}
	if err != nil || len(subResults) != len(b.idx) {
		failBucket(results, b.idx, http.StatusBadGateway, "cluster: undecodable sub-batch response from "+b.owner)
		return
	}
	for j, i := range b.idx {
		results[i] = subResults[j]
	}
}

// bufResponseWriter captures a local sub-batch response in memory.
type bufResponseWriter struct {
	h      http.Header
	buf    bytes.Buffer
	status int
}

func (b *bufResponseWriter) Header() http.Header { return b.h }

func (b *bufResponseWriter) WriteHeader(code int) { b.status = code }

func (b *bufResponseWriter) Write(p []byte) (int, error) { return b.buf.Write(p) }
