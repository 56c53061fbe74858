package fuzzy

import "fmt"

// ExpectedDist computes the integrated ("expected") distance between two
// fuzzy objects:
//
//	E(A, B) = ∫₀¹ d_α(A, B) dα
//
// This is the classical fuzzy-set distance of Bloch and of Chaudhuri &
// Rosenfeld that the paper contrasts with its α-distance (§2.1): every
// α-cut's closest-pair distance contributes, weighted by the plateau it
// spans. The paper argues against folding probability into one score — an
// object's low-probability fringe can never make it a nearest neighbor
// under E — but the metric remains useful as a single-number summary, so it
// is provided as an extension.
//
// The integral is exact: d_α is a step function, so it is the sum of
// plateau widths times plateau distances, read directly off the profile.
func ExpectedDist(a, b *Object) float64 {
	return ComputeProfile(a, b).Integrate()
}

// Integrate returns ∫₀¹ d_α dα for the profile's step function: plateau j
// spans (Levels[j-1], Levels[j]] with constant distance Dists[j].
//
// Profiles built by ComputeProfile carry the integral precomputed, so this
// is a plain field read there. For hand-assembled profiles the sum is
// computed on the fly without being stored: Integrate never writes to the
// profile, so sharing a *Profile across goroutines stays safe. A staircase
// built from a floor above its lowest levels lacks the plateaus below the
// floor, and integrating it panics.
func (p *Profile) Integrate() float64 {
	if p.integrated {
		return p.integral
	}
	if p.floor > 0 {
		panic(fmt.Sprintf("fuzzy: integral of a profile floored at %v", p.floor))
	}
	return integrate(p.Levels, p.Dists)
}

// integrate sums the staircase's exact integral.
func integrate(levels, dists []float64) float64 {
	var sum, prev float64
	for j, u := range levels {
		sum += (u - prev) * dists[j]
		prev = u
	}
	return sum
}
