package tensor

// float32 kernel specializations. The generic kernels in matmul.go
// dispatch here when the element type is exactly float32 (named
// ~float32 types keep the generic scalar path): same cache blocking,
// but the innermost loops run on the tier-dispatched vector primitives
// of simd_amd64.go (8 AVX2 or 16 AVX-512 float32 lanes per instruction,
// scalar elsewhere — the wrappers handle ragged tails). Each element's
// arithmetic is independent of the tile sizes, of the row pairing and
// of whether the operand tile was packed.

// mulRowsF32 is mulRows for float32: the (k-unrolled × j-segment) inner
// update is a 4-operand AXPY over the destination segment. When b is
// wider than one tile, the active blockK×blockJ tile is repacked once
// per block into a contiguous panel (rows seg apart instead of b.Cols
// apart) that every destination row then sweeps — the vector kernels
// stream unit-stride panel rows that share cache lines regardless of
// b's row pitch. Packing copies each tile element once and is amortized
// over the destination rows, so it is skipped for thin products (and
// unnecessary when n ≤ blockJ: whole rows of b are already contiguous).
//
// Rows are register-blocked in pairs — saxpy4x2 feeds two accumulating
// rows from one load of the tile vectors, halving the dominant tile
// read traffic — and one saxpy4x2Tile call covers every row pair and k
// quad of the tile. What it leaves is small: the odd last row, and the
// kTot % 4 single k's of the last k block (blockK is a multiple of 4).
// Each element of dst accumulates its quads, then its singles, in
// ascending k, whatever the tile sizes.
func mulRowsF32(dst, a, b *Matrix[float32]) {
	rows, n, kTot := a.Rows, b.Cols, a.Cols
	dst.Zero()
	var panel []float32
	pack := n > blockJ && rows >= panelMinRows
	if pack {
		pp := panelPool32.Get().(*[]float32)
		panel = *pp
		defer panelPool32.Put(pp)
	}
	for k0 := 0; k0 < kTot; k0 += blockK {
		kext := min(blockK, kTot-k0)
		kq := kext &^ 3
		at := a.Data[k0:]
		for j0 := 0; j0 < n; j0 += blockJ {
			seg := min(blockJ, n-j0)
			// bp holds the active tile: either the packed panel (row
			// pitch seg) or a view into b itself (row pitch n).
			bp, pitch := b.Data[k0*n+j0:], n
			if pack {
				for k := 0; k < kext; k++ {
					copy(panel[k*seg:(k+1)*seg], bp[k*n:k*n+seg])
				}
				bp, pitch = panel, seg
			}
			d := dst.Data[j0:]
			saxpy4x2Tile(d, n, at, kTot, 1, bp, pitch, rows/2, kq/4, seg, false)
			if i := rows - 1; rows&1 != 0 {
				arow, drow := at[i*kTot:], d[i*n:i*n+seg]
				for k := 0; k < kq; k += 4 {
					saxpy4(drow, bp[k*pitch:], bp[(k+1)*pitch:], bp[(k+2)*pitch:], bp[(k+3)*pitch:],
						arow[k], arow[k+1], arow[k+2], arow[k+3])
				}
			}
			for k := kq; k < kext; k++ {
				brow := bp[k*pitch : k*pitch+seg]
				for i := 0; i < rows; i++ {
					if av := at[i*kTot+k]; av != 0 {
						saxpy1(d[i*n:i*n+seg], brow, av)
					}
				}
			}
		}
	}
}

// mulTransAF32 is mulTransARows for float32: each destination row is an
// AXPY accumulation of b's rows weighted by one (strided) column of a.
// b's rows are read whole and are already unit-stride, so no packing is
// needed here: b is the tile, cut into blockJ-wide column blocks so the
// rows every destination pair sweeps stay L1-resident. Destination rows
// pair adjacent columns of a (the strided a loads share cache lines);
// a quad is skipped when its multipliers — all eight of a pair's, the
// four of the odd last row's — are zero.
func mulTransAF32(dst, a, b *Matrix[float32]) {
	n, kTot, ac := b.Cols, a.Rows, a.Cols
	dst.Zero()
	kq := kTot &^ 3
	for j0 := 0; j0 < n; j0 += blockJ {
		seg := min(blockJ, n-j0)
		saxpy4x2Tile(dst.Data[j0:], n, a.Data, 1, ac, b.Data[j0:], n, ac/2, kq/4, seg, true)
	}
	if i := ac - 1; ac&1 != 0 {
		drow := dst.Data[i*n : (i+1)*n]
		for k := 0; k < kq; k += 4 {
			a0, a1, a2, a3 := a.Data[k*ac+i], a.Data[(k+1)*ac+i], a.Data[(k+2)*ac+i], a.Data[(k+3)*ac+i]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			saxpy4(drow, b.Data[k*n:], b.Data[(k+1)*n:], b.Data[(k+2)*n:], b.Data[(k+3)*n:], a0, a1, a2, a3)
		}
	}
	for k := kq; k < kTot; k++ {
		brow := b.Data[k*n : (k+1)*n]
		for i := 0; i < ac; i++ {
			if av := a.Data[k*ac+i]; av != 0 {
				saxpy1(dst.Data[i*n:(i+1)*n], brow, av)
			}
		}
	}
}

// mulTransBF32 is mulTransBRows for float32: each output element is
// bit for bit one lone sdot of an a row with a b row (the dot-order
// contract in simd.go), on one of two tile-level paths.
//
// At depths of a vector or more, b is cut into blockTB-row column
// blocks and one sdotTile call sweeps every row of a over a block — on
// avx2 a 2 × 2 and on avx512 a 4 × 4 register tile in one assembly
// call, on scalar one sdot per output. Both operand rows are
// unit-stride, so nothing is packed.
//
// Below the 8-lane vector width (the 5-wide Q head's ∂L/∂in), sdot is
// the ascending chain of its products, which saxpy1 computes a whole
// row at a time: bᵀ is packed into the pooled panel and each output row
// is zeroed and accumulates k saxpy1s — rows·k calls where the per-dot
// path made rows·dn.
func mulTransBF32(dst, a, b *Matrix[float32]) {
	kTot, dn := a.Cols, b.Rows
	if kTot < sdotChainK() {
		mulTransBChainF32(dst, a, b)
		return
	}
	const blockTB = 64
	for j0 := 0; j0 < dn; j0 += blockTB {
		sdotTile(dst.Data[j0:], dn, a.Data, b.Data[j0*kTot:], kTot, a.Rows, min(blockTB, dn-j0))
	}
}

// mulTransBChainF32 is mulTransBF32's shallow path. The panel holds
// kTot × seg of bᵀ; products wider than it go a column segment at a time.
func mulTransBChainF32(dst, a, b *Matrix[float32]) {
	kTot, dn := a.Cols, b.Rows
	pp := panelPool32.Get().(*[]float32)
	defer panelPool32.Put(pp)
	panel, segMax := *pp, dn
	if kTot > 0 {
		segMax = min(dn, len(panel)/kTot)
	}
	for j0 := 0; j0 < dn; j0 += segMax {
		seg := min(segMax, dn-j0)
		for j := 0; j < seg; j++ {
			brow := b.Data[(j0+j)*kTot : (j0+j+1)*kTot]
			for k, v := range brow {
				panel[k*seg+j] = v
			}
		}
		for i := 0; i < a.Rows; i++ {
			drow := dst.Data[i*dn+j0 : i*dn+j0+seg]
			clear(drow)
			for k, av := range a.Data[i*kTot : (i+1)*kTot] {
				saxpy1(drow, panel[k*seg:(k+1)*seg], av)
			}
		}
	}
}

// asF32 reports whether the matrices are concretely float32 (not a
// named ~float32 type) and returns the reinterpreted headers.
func asF32[E Element](dst, a, b *Matrix[E]) (d, x, y *Matrix[float32], ok bool) {
	d, ok = any(dst).(*Matrix[float32])
	if !ok {
		return nil, nil, nil, false
	}
	return d, any(a).(*Matrix[float32]), any(b).(*Matrix[float32]), true
}
