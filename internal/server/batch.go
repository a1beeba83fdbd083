// Batch endpoints: POST /v1/compress:batch and /v1/decompress:batch
// process N blocks in one HTTP round trip, so the per-request HTTP and
// JSON cost is paid once for all of them — the serving-side analogue of
// CRAM-style amortization: pay the fixed cost once, stream the items.
// ccrpbench's transport.loopback_ms.* and server.handler_p50_ms.* rungs
// measure that fixed cost per route.
//
// Batch semantics: request-level problems (bad JSON, unknown coder, too
// many items) fail the whole request through the normal error taxonomy;
// item-level problems are reported per item, and the items around a
// failed one still succeed. Each item runs under a batch_item span with
// the same stage children as its single-request twin, so ccrp-spans
// decomposes batched traffic with the same vocabulary.
package server

import (
	"context"
	"net/http"

	"ccrp/internal/tracing"
)

// compressBatchRequest is the POST /v1/compress:batch body: one coder,
// N text sources, at most 256 (the max tag, which decodeRequest
// enforces before it allocates the items).
type compressBatchRequest struct {
	CoderID     string              `json:"coder_id"`
	WordAligned bool                `json:"word_aligned,omitempty"`
	Items       []compressBatchItem `json:"items" max:"256"`
}

// compressBatchItem is one text source, same rules as /v1/compress.
type compressBatchItem struct {
	TextB64  b64Field `json:"text_b64,omitempty"`
	Workload string   `json:"workload,omitempty"`
}

// batchCompressed is one item's outcome: exactly one of Result or Error
// is set.
type batchCompressed struct {
	Result *compressResponse `json:"result,omitempty"`
	Error  *APIError         `json:"error,omitempty"`
}

// compressBatchResponse reports every item in request order.
type compressBatchResponse struct {
	Items  []batchCompressed `json:"items"`
	Errors int               `json:"errors"`
}

// checkBatchSize refuses a batch of no items; decodeRequest has
// refused one of too many.
func checkBatchSize(n int) error {
	if n == 0 {
		return errBadRequest("items is required and must not be empty")
	}
	return nil
}

// batchItemCtx opens the per-item span and rebinds the context so the
// item's stage children hang off it. Callers must End the span.
func batchItemCtx(ctx context.Context, i int) (context.Context, *tracing.Span) {
	sp := tracing.FromContext(ctx).Child(StageBatchItem)
	sp.SetAttrInt("item", int64(i))
	return tracing.ContextWith(ctx, sp), sp
}

// batchItemErr normalizes an item failure, mapping an expired request
// deadline onto the 408 taxonomy entry so trailing items of a slow batch
// are reported as such rather than as opaque internals.
func batchItemErr(ctx context.Context, i int, err error) *APIError {
	if ctxErr := ctx.Err(); ctxErr != nil {
		return Errf(http.StatusRequestTimeout, CodeDeadlineExceeded,
			"batch deadline exceeded at item %d", i)
	}
	return asAPIError(err)
}

func (s *Server) handleCompressBatch(w http.ResponseWriter, r *http.Request) error {
	var req compressBatchRequest
	if err := decodeRequest(w, r, &req); err != nil {
		return err
	}
	if err := checkBatchSize(len(req.Items)); err != nil {
		return err
	}
	if req.CoderID == "" {
		return errBadRequest("missing coder_id (train one with POST /v1/coders)")
	}
	// The coder is shared by every item: an unknown id fails the batch,
	// not N items individually.
	entry, err := s.resolveCoder(r.Context(), req.CoderID)
	if err != nil {
		return err
	}

	ctx := r.Context()
	resp := compressBatchResponse{Items: make([]batchCompressed, len(req.Items))}
	var textBytes uint64
	for i, item := range req.Items {
		ictx, sp := batchItemCtx(ctx, i)
		out, err := s.compressBatchItem(ictx, entry, req.CoderID, item, req.WordAligned)
		if err != nil {
			api := batchItemErr(ctx, i, err)
			sp.SetError(api)
			resp.Items[i] = batchCompressed{Error: api}
			resp.Errors++
		} else {
			resp.Items[i] = batchCompressed{Result: out}
			textBytes += uint64(out.OriginalBytes)
		}
		sp.End()
	}

	s.metricsMu.Lock()
	s.inst.bytesIn.Add(textBytes)
	s.inst.batchItems.Add(uint64(len(req.Items)))
	s.inst.batchItemErrors.Add(uint64(resp.Errors))
	s.metricsMu.Unlock()

	traceJSON(w, r, resp)
	return nil
}

// compressBatchItem runs one item through the same resolve/build path as
// the single endpoint.
func (s *Server) compressBatchItem(ctx context.Context, entry *coderEntry, coderID string, item compressBatchItem, wordAligned bool) (*compressResponse, error) {
	text, err := s.resolveText(ctx, item.TextB64, item.Workload)
	if err != nil {
		return nil, err
	}
	rom, err := s.buildROM(ctx, entry, text, item.Workload, wordAligned)
	if err != nil {
		return nil, err
	}
	return compressResult(entry, coderID, rom)
}

// decompressBatchRequest is the POST /v1/decompress:batch body: N
// independent decompress payloads (each a CROM image or
// coder_id+blocks+lines, same rules as /v1/decompress), at most 256.
type decompressBatchRequest struct {
	Items []decompressRequest `json:"items" max:"256"`
}

// batchDecompressed is one item's outcome.
type batchDecompressed struct {
	Result *decompressResponse `json:"result,omitempty"`
	Error  *APIError           `json:"error,omitempty"`
}

type decompressBatchResponse struct {
	Items  []batchDecompressed `json:"items"`
	Errors int                 `json:"errors"`
}

func (s *Server) handleDecompressBatch(w http.ResponseWriter, r *http.Request) error {
	var req decompressBatchRequest
	if err := decodeRequest(w, r, &req); err != nil {
		return err
	}
	if err := checkBatchSize(len(req.Items)); err != nil {
		return err
	}

	ctx := r.Context()
	resp := decompressBatchResponse{Items: make([]batchDecompressed, len(req.Items))}
	var bytesOut uint64
	for i := range req.Items {
		ictx, sp := batchItemCtx(ctx, i)
		text, err := s.decompressOne(ictx, &req.Items[i])
		if err != nil {
			api := batchItemErr(ctx, i, err)
			sp.SetError(api)
			resp.Items[i] = batchDecompressed{Error: api}
			resp.Errors++
		} else {
			resp.Items[i] = batchDecompressed{Result: &decompressResponse{TextB64: text, OriginalBytes: len(text)}}
			bytesOut += uint64(len(text))
		}
		sp.End()
	}

	s.metricsMu.Lock()
	s.inst.bytesOut.Add(bytesOut)
	s.inst.batchItems.Add(uint64(len(req.Items)))
	s.inst.batchItemErrors.Add(uint64(resp.Errors))
	s.metricsMu.Unlock()

	traceJSON(w, r, resp)
	return nil
}
