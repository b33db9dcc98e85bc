package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzBatchRequest feeds arbitrary bodies to the batch decoder and
// validator that guard /v1/cells and /v1/sweep. Nothing may panic; a
// rejected body must answer 400 or 413 with exactly one line of error; an
// accepted one must compile to one config per cell.
func FuzzBatchRequest(f *testing.F) {
	for _, seed := range []string{
		`{"machine":"Zoot","cells":[{"comp":"KNEM-Coll","op":"bcast","size":4096,"np":4,"iters":1}]}`,
		`{"machine":"IG","cells":[{"comp":"tuned-sm","op":"alltoall","size":1,"root":47,"offcache":true}]}`,
		`{"machine":"Zoot","cells":[{"comp":"KNEM-Coll","op":"bcast","size":-1}]}`,
		`{"machine":"Cray-1\n","cells":[]}`,
		`{"machine":"Zoot","threads":9}`,
		`{"machine":"Zoot","cells":[{"comp":"FTL ","op":"warp\n","size":1e99}]}`,
		`hello`,
		``,
	} {
		f.Add([]byte(seed))
	}
	s := New(Options{MaxCells: 8})
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/cells", bytes.NewReader(body))
		breq, cfgs, _, ok := s.decodeBatch(rec, req)
		if ok {
			if len(cfgs) != len(breq.Cells) {
				t.Fatalf("%d cells compiled to %d configs", len(breq.Cells), len(cfgs))
			}
			return
		}
		if rec.Code != http.StatusBadRequest && rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("rejected with status %d", rec.Code)
		}
		msg := rec.Body.String()
		if strings.Count(msg, "\n") != 1 || !strings.HasSuffix(msg, "\n") {
			t.Fatalf("error is not one line: %q", msg)
		}
	})
}
