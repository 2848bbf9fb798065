package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestWriteJSON: writeJSON writes what json.Encoder.Encode writes, newline
// included, and answers a value that does not encode with a 500 and an
// ErrorResponse instead of an empty 200.
func TestWriteJSON(t *testing.T) {
	v := UploadResponse{Handle: "ab<>&", Cells: 3, PeriodPS: 12.5}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, v)
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(v); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
		t.Fatalf("HTTP %d %q, want 200 %q", rec.Code, rec.Body.Bytes(), want.Bytes())
	}

	rec = httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, UploadResponse{PeriodPS: math.Inf(1)})
	var e ErrorResponse
	if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error == "" {
		t.Fatalf("HTTP %d %q, want 500 with an ErrorResponse", rec.Code, rec.Body.Bytes())
	}
}
