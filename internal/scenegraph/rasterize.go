package scenegraph

import (
	"math"

	"visapult/internal/render"
	"visapult/internal/volume"
)

// Rasterizer draws a scene into a render.Image with a software pipeline:
// texture quads are composited far-to-near (the IBR step), then line sets and
// text annotations are drawn on top. It is the stand-in for the paper's
// OpenGL/ImmersaDesk display path and lets the examples and tests observe
// exactly what the user would see.
type Rasterizer struct {
	// Width and Height of the output image.
	Width, Height int
	// ViewAxis selects the axis-aligned projection used to place geometry
	// (texture quads are already screen-aligned images).
	ViewAxis volume.Axis
	// WorldW and WorldH are the world-space extents mapped onto the image
	// (defaults to Width and Height, i.e. one voxel per pixel).
	WorldW, WorldH float64
}

// Render produces an image of the scene.
func (rz Rasterizer) Render(s *Scene) *render.Image {
	w, h := rz.Width, rz.Height
	if w <= 0 {
		w = 256
	}
	if h <= 0 {
		h = 256
	}
	out := render.NewImage(w, h)

	// 1. IBR composite of the slab textures, far to near.
	compositeQuads(out, s.TextureQuads())

	// 2. Vector geometry on top.
	rz.drawLineSets(out, s)
	return out
}

// drawLineSets draws the scene's line sets over out.
func (rz Rasterizer) drawLineSets(out *render.Image, s *Scene) {
	w, h := out.W, out.H
	worldW, worldH := rz.WorldW, rz.WorldH
	if worldW <= 0 {
		worldW = float64(w)
	}
	if worldH <= 0 {
		worldH = float64(h)
	}
	sx := float64(w-1) / worldW
	sy := float64(h-1) / worldH
	for _, ls := range s.LineSets() {
		for _, seg := range ls.Segments {
			x0, y0 := rz.project(float64(seg.A.X), float64(seg.A.Y), float64(seg.A.Z), sx, sy)
			x1, y1 := rz.project(float64(seg.B.X), float64(seg.B.Y), float64(seg.B.Z), sx, sy)
			drawLine(out, x0, y0, x1, y1, ls.R, ls.G, ls.B, ls.A)
		}
	}
}

// project maps a world point to pixel coordinates under the axis-aligned
// orthographic projection.
func (rz Rasterizer) project(x, y, z, sx, sy float64) (int, int) {
	var u, v float64
	switch rz.ViewAxis {
	case volume.AxisX:
		u, v = y, z
	case volume.AxisY:
		u, v = x, z
	default:
		u, v = x, y
	}
	return int(math.Round(u * sx)), int(math.Round(v * sy))
}

// compositeQuads composites the quads' textures far-to-near into out, which
// must be transparent black, scaling each texture to out's size with
// nearest-neighbour sampling (source texel x*W/w, y*H/h). Every output pixel
// starts transparent and takes one render.OverPixel per layer in quad order,
// so the image is bit-identical to scaling each layer to a full view image
// and compositing those in turn. The work is done once per distinct
// combination of source texels: an output row whose layers all sample the
// same source rows as the row above is copied from it, and likewise a pixel
// whose layers all sample the same source columns as its left neighbour.
func compositeQuads(out *render.Image, quads []*TextureQuad) {
	n := len(quads)
	if n == 0 {
		return
	}
	w, h := out.W, out.H
	// col[x*n+l] is the Pix offset of layer l's source column for output
	// column x; dupCol[x] reports that column x samples the same texels as
	// column x-1 in every layer.
	col := make([]int, w*n)
	dupCol := make([]bool, w)
	for x := 0; x < w; x++ {
		dupCol[x] = x > 0
		for l, q := range quads {
			off := x * q.Image.W / w * 4
			col[x*n+l] = off
			if x > 0 && off != col[(x-1)*n+l] {
				dupCol[x] = false
			}
		}
	}
	// row[l] is the Pix offset of layer l's source row for the current
	// output row.
	row := make([]int, n)
	stride := w * 4
	for y := 0; y < h; y++ {
		dupRow := y > 0
		for l, q := range quads {
			off := y * q.Image.H / h * q.Image.W * 4
			if off != row[l] {
				dupRow = false
			}
			row[l] = off
		}
		dst := out.Pix[y*stride : (y+1)*stride]
		if dupRow {
			copy(dst, out.Pix[(y-1)*stride:y*stride])
			continue
		}
		for x := 0; x < w; x++ {
			d := dst[x*4 : x*4+4]
			if dupCol[x] {
				copy(d, dst[x*4-4:x*4])
				continue
			}
			var r, g, b, a float32
			for l, q := range quads {
				p := q.Image.Pix[row[l]+col[x*n+l]:]
				r, g, b, a = render.OverPixel(p[0], p[1], p[2], p[3], r, g, b, a)
			}
			d[0], d[1], d[2], d[3] = r, g, b, a
		}
	}
}

// drawLine draws a straight line with Bresenham's algorithm, alpha-blending
// the color over the existing pixels.
func drawLine(img *render.Image, x0, y0, x1, y1 int, r, g, b, a float32) {
	dx := abs(x1 - x0)
	dy := -abs(y1 - y0)
	sx := 1
	if x0 > x1 {
		sx = -1
	}
	sy := 1
	if y0 > y1 {
		sy = -1
	}
	err := dx + dy
	for {
		if x0 >= 0 && x0 < img.W && y0 >= 0 && y0 < img.H {
			dr, dg, db, da := img.At(x0, y0)
			nr, ng, nb, na := render.OverPixel(r, g, b, a, dr, dg, db, da)
			img.Set(x0, y0, nr, ng, nb, na)
		}
		if x0 == x1 && y0 == y1 {
			return
		}
		e2 := 2 * err
		if e2 >= dy {
			err += dy
			x0 += sx
		}
		if e2 <= dx {
			err += dx
			y0 += sy
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
