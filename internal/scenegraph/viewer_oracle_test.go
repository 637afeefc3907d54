package scenegraph_test

import (
	"math/rand"
	"testing"

	"visapult/internal/amr"
	"visapult/internal/scenegraph"
	"visapult/internal/viewer"
	"visapult/internal/volume"
	"visapult/internal/wire"
)

// TestViewerRenderMatchesReference drives slab payloads through
// Viewer.Deliver, as the viewer's I/O threads do, and checks that the
// viewer's composite equals the reference rasterizer on the same scene.
func TestViewerRenderMatchesReference(t *testing.T) {
	const pes, tex = 4, 64
	v, err := viewer.New(viewer.Config{PEs: pes})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for pe := 0; pe < pes; pe++ {
		rgba := make([]byte, tex*tex*4)
		for i := 0; i < len(rgba); i += 4 {
			if rng.Intn(3) != 0 {
				rng.Read(rgba[i : i+4])
			}
		}
		hp := &wire.HeavyPayload{Frame: 0, PE: pe, TexWidth: tex, TexHeight: tex, Texture: rgba}
		if pe%2 == 0 {
			hp.Grid = []amr.Segment{{A: amr.Point3{X: 1, Y: 2}, B: amr.Point3{X: 60, Y: float32(10 * pe)}}}
		}
		lp := &wire.LightPayload{
			Frame: 0, PE: pe, SlabIndex: pe, SlabCount: pes, Axis: volume.AxisZ,
			TexWidth: tex, TexHeight: tex, BytesPerPixel: 4,
			CenterX: tex / 2, CenterY: tex / 2, CenterZ: float64(pe) + 0.5,
			Width: tex, Height: tex, Depth: 1, HeavyBytes: hp.WireSize(),
		}
		if err := v.Deliver(lp, hp); err != nil {
			t.Fatal(err)
		}
	}

	want := scenegraph.ReferenceRender(scenegraph.Rasterizer{Width: 512, Height: 512}, v.Scene())
	got := v.RenderOnce()
	scenegraph.RequireSameImage(t, got, want)
	again, err := v.CompositeView()
	if err != nil {
		t.Fatal(err)
	}
	scenegraph.RequireSameImage(t, again, want)
	if &again.Pix[0] == &got.Pix[0] {
		t.Error("CompositeView reused the previous image; each call must return a fresh one")
	}
}
