package replay

import (
	"math/rand"

	"capes/internal/tensor"
)

// Observation returns the stacked observation ending at tick t, applying
// the missing-entry tolerance. This is the same observation layout used
// on the action path, "the same observation data format is used in both
// training and action steps" (§3.7).
func (db *DB) Observation(t int64) ([]float64, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	dst := make([]float64, db.ObservationWidth())
	if err := observationIntoFor(db, dst, t); err != nil {
		return nil, err
	}
	return dst, nil
}

// ConstructMinibatch is ConstructMinibatchInto sampling into a fresh
// batch.
func ConstructMinibatch[E tensor.Element](db *DB, rng *rand.Rand, n int, rf RewardFunc) (*Batch[E], error) {
	b := new(Batch[E])
	if err := ConstructMinibatchInto(db, rng, n, rf, b); err != nil {
		return nil, err
	}
	return b, nil
}
