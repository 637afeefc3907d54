package scenegraph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"visapult/internal/amr"
	"visapult/internal/render"
)

// referenceRender is the straightforward rasterizer the one-pass compositor
// replaced, kept as its bit-exact oracle: every texture is resampled to a
// full view image, and the layers are composited far-to-near with
// render.Image.Over before the line sets are drawn on top.
func referenceRender(rz Rasterizer, s *Scene) *render.Image {
	w, h := rz.Width, rz.Height
	if w <= 0 {
		w = 256
	}
	if h <= 0 {
		h = 256
	}
	out := render.NewImage(w, h)
	for _, quad := range s.TextureQuads() {
		if err := out.Over(scaleToFit(quad.Image, w, h)); err != nil {
			panic(err)
		}
	}
	rz.drawLineSets(out, s)
	return out
}

// scaleToFit resamples img to (w, h) with nearest-neighbour sampling; if the
// sizes already match it returns img unchanged.
func scaleToFit(img *render.Image, w, h int) *render.Image {
	if img.W == w && img.H == h {
		return img
	}
	out := render.NewImage(w, h)
	for y := 0; y < h; y++ {
		sy := y * img.H / h
		for x := 0; x < w; x++ {
			sx := x * img.W / w
			r, g, b, a := img.At(sx, sy)
			out.Set(x, y, r, g, b, a)
		}
	}
	return out
}

// requireSameImage fails unless got and want have the same size and the same
// bits in every channel (stricter than ==, and NaN-safe).
func requireSameImage(t *testing.T, got, want *render.Image) {
	t.Helper()
	if got.W != want.W || got.H != want.H {
		t.Fatalf("size %dx%d, want %dx%d", got.W, got.H, want.W, want.H)
	}
	for i := range want.Pix {
		if math.Float32bits(got.Pix[i]) != math.Float32bits(want.Pix[i]) {
			p := i / 4
			t.Fatalf("pixel (%d,%d) channel %d = %v, want %v",
				p%want.W, p/want.W, i%4, got.Pix[i], want.Pix[i])
		}
	}
}

// randomTexture returns a w×h texture in which about a third of the texels
// are fully zero and the rest are random straight-alpha colors, some of them
// with zero alpha.
func randomTexture(rng *rand.Rand, w, h int) *render.Image {
	img := render.NewImage(w, h)
	for i := 0; i < len(img.Pix); i += 4 {
		if rng.Intn(3) == 0 {
			continue
		}
		a := rng.Float32()
		if rng.Intn(8) == 0 {
			a = 0
		}
		img.Pix[i], img.Pix[i+1], img.Pix[i+2], img.Pix[i+3] = rng.Float32(), rng.Float32(), rng.Float32(), a
	}
	return img
}

// sceneOf builds a scene whose texture quads are the given images, far to
// near, optionally with a line set on top.
func sceneOf(rng *rand.Rand, layers []*render.Image, lines bool) *Scene {
	s := NewScene()
	s.Update(func(root *Group) {
		for i, img := range layers {
			depth := float64(len(layers) - i)
			root.Add(NewTextureQuad(fmt.Sprintf("slab-%d", i), img, Vec3{}, depth,
				float64(img.W), float64(img.H)))
		}
		if lines {
			segs := make([]amr.Segment, 6)
			for i := range segs {
				segs[i] = amr.Segment{
					A: amr.Point3{X: rng.Float32() * 80, Y: rng.Float32() * 80},
					B: amr.Point3{X: rng.Float32() * 80, Y: rng.Float32() * 80},
				}
			}
			root.Add(NewLineSet("grid", segs, 0.9, 0.9, 0.9, 0.6))
		}
	})
	return s
}

func TestRasterizerMatchesReference(t *testing.T) {
	type dims struct{ w, h int }
	cases := []struct {
		name   string
		view   dims
		layers []dims
	}{
		{"view-size", dims{64, 64}, []dims{{64, 64}, {64, 64}}},
		{"integer-upscale", dims{512, 512}, []dims{{64, 64}, {64, 64}, {64, 64}, {64, 64}}},
		{"non-divisible", dims{500, 500}, []dims{{48, 48}, {48, 48}, {48, 48}}},
		{"downscale", dims{128, 128}, []dims{{300, 300}, {300, 300}}},
		{"one-pixel", dims{1, 1}, []dims{{7, 5}, {3, 9}}},
		{"mixed-dims", dims{200, 150}, []dims{{64, 64}, {48, 31}, {200, 150}, {1, 1}, {250, 7}}},
		{"no-layers", dims{32, 32}, nil},
	}
	for i, tc := range cases {
		for _, lines := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/lines=%v", tc.name, lines), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(i)))
				layers := make([]*render.Image, len(tc.layers))
				for i, d := range tc.layers {
					layers[i] = randomTexture(rng, d.w, d.h)
				}
				s := sceneOf(rng, layers, lines)
				rz := Rasterizer{Width: tc.view.w, Height: tc.view.h}
				requireSameImage(t, rz.Render(s), referenceRender(rz, s))
			})
		}
	}
}

func TestRasterizerMatchesReferenceRandomScenes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 200; i++ {
		layers := make([]*render.Image, 1+rng.Intn(5))
		for l := range layers {
			layers[l] = randomTexture(rng, 1+rng.Intn(70), 1+rng.Intn(70))
		}
		s := sceneOf(rng, layers, rng.Intn(2) == 0)
		rz := Rasterizer{Width: 1 + rng.Intn(300), Height: 1 + rng.Intn(300)}
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			requireSameImage(t, rz.Render(s), referenceRender(rz, s))
		})
	}
}

// TestRasterizerCompositesTransparentLayers pins that a fully transparent
// near layer still takes part in the composite, as it does in the oracle:
// OverPixel with source alpha 0 returns (dstR·dstA)/dstA and multiplies the
// source color by zero. The first case puts a clear layer over a far texel
// whose color does not survive (r·a)/a. The far layer's own composite over
// transparent black already rounds its color that way, and the rounding is
// then stable, so only the second case tells a compositor that skips
// zero-alpha slabs or texels apart: a +Inf color at alpha 0 turns the pixel
// NaN in the oracle, where skipping would leave the far pixel.
func TestRasterizerCompositesTransparentLayers(t *testing.T) {
	// A float32 pair for which the division does not undo the product.
	var r, a float32
	for i := 1; r == 0 && i < 1000; i++ {
		for j := 1; j < 1000; j++ {
			ri, aj := float32(i)/1000, float32(j)/1000
			if ri*aj/aj != ri {
				r, a = ri, aj
				break
			}
		}
	}
	if r == 0 {
		t.Fatal("no float32 pair with (r*a)/a != r")
	}
	far := render.NewImage(1, 1)
	far.Set(0, 0, r, r, r, a)
	transparent := render.NewImage(1, 1)
	inf := render.NewImage(1, 1)
	inf.Set(0, 0, float32(math.Inf(1)), 0, 0, 0)
	rz := Rasterizer{Width: 4, Height: 4}

	for _, near := range []*render.Image{transparent, inf} {
		s := sceneOf(nil, []*render.Image{far, near}, false)
		got := rz.Render(s)
		requireSameImage(t, got, referenceRender(rz, s))
		if near == inf {
			if gr, _, _, _ := got.At(0, 0); !math.IsNaN(float64(gr)) {
				t.Errorf("red under a zero-alpha +Inf texel = %v, want NaN", gr)
			}
		}
	}
}
