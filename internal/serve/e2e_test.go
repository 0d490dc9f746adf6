package serve

import (
	"bytes"
	"io"
	"net/http"
	"strconv"
	"testing"

	"asv/internal/core"
	"asv/internal/dataset"
	"asv/internal/imgproc"
)

// TestServeMatchesSerialOracle is the end-to-end correctness gate for the
// serving layer: a preset session driven over HTTP must produce, frame for
// frame, exactly the disparities and key/propagated decisions that the
// serial core.Pipeline produces on the identical generated inputs. Any
// divergence means the dispatcher broke per-session ordering or the serving
// path drifted from the ISM schedule.
func TestServeMatchesSerialOracle(t *testing.T) {
	const (
		wPx, hPx = 96, 64
		nFrames  = 9
		pw       = 3
		seed     = 1234
	)

	cfg := DefaultConfig()
	cfg.Workers = 3
	srv, ts := testServer(t, cfg, 0)
	_ = srv

	info := createPresetSession(t, ts.URL, CreateSessionRequest{
		PW: pw, Preset: "sceneflow", W: wPx, H: hPx, Frames: nFrames, Seed: seed,
	})

	// The oracle replays the same synthetic sequence through a serial
	// pipeline built exactly like the server builds the session's: the
	// server's base Pipeline config with the session's PW.
	scene := dataset.SceneFlowLike(wPx, hPx, nFrames, seed)[0]
	seq := dataset.Generate(scene)
	ocfg := cfg.withDefaults().Pipeline
	ocfg.PW = pw
	oracle := core.New(quickMatcher(0), ocfg)

	for i := 0; i < nFrames; i++ {
		want := oracle.Process(seq.Frames[i].Left, seq.Frames[i].Right)

		resp, err := http.Post(ts.URL+"/v1/sessions/"+info.ID+"/frames?disparity=pfm", "", nil)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("frame %d: status %d err %v: %s", i, resp.StatusCode, err, body)
		}

		if got := resp.Header.Get("X-ASV-Frame"); got != strconv.Itoa(i) {
			t.Fatalf("frame %d: server reports frame index %s", i, got)
		}
		isKey, _ := strconv.ParseBool(resp.Header.Get("X-ASV-Is-Key"))
		if isKey != want.IsKey {
			t.Fatalf("frame %d: is_key=%v, oracle says %v", i, isKey, want.IsKey)
		}
		if wantKey := i%pw == 0; isKey != wantKey {
			t.Fatalf("frame %d: is_key=%v, cadence requires %v", i, isKey, wantKey)
		}
		macs, _ := strconv.ParseInt(resp.Header.Get("X-ASV-MACs"), 10, 64)
		if macs != want.MACs {
			t.Fatalf("frame %d: macs=%d, oracle says %d", i, macs, want.MACs)
		}

		got, err := imgproc.ReadPFM(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("frame %d: decoding PFM reply: %v", i, err)
		}
		if got.W != want.Disparity.W || got.H != want.Disparity.H {
			t.Fatalf("frame %d: disparity %dx%d, oracle %dx%d",
				i, got.W, got.H, want.Disparity.W, want.Disparity.H)
		}
		for p := range got.Pix {
			if got.Pix[p] != want.Disparity.Pix[p] {
				t.Fatalf("frame %d: disparity diverges at pixel %d: served %g, oracle %g",
					i, p, got.Pix[p], want.Disparity.Pix[p])
			}
		}
	}
}
