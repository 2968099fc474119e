package cascade

import (
	"fmt"
	"io"
	"math"

	"repro/internal/artifact"
	"repro/internal/tensor"
)

// Cascade snapshots. A serving runtime that restarts a crashed session
// from a cold cascade loses a full window of warm-up — blind time a
// pre-impact detector cannot afford. AppendSnapshot captures every mutable
// field of the cascade (the detector pipeline, the threshold floor's
// integrator, the supervisor state machine, the tier counters) inside a
// verified artifact envelope; Restore applied to a configuration-
// identical cascade resumes it bit-identically, so a session killed
// mid-fall and replayed from its last snapshot reaches the same trigger
// decision at the same sample as one that never crashed.

// StateKind is the artifact envelope kind of a cascade snapshot.
const StateKind = "cascade-state"

// cascadeStateVersion guards the field layout below.
const cascadeStateVersion = 1

// AppendSnapshot appends the cascade's complete mutable state to dst
// as a digest-verified artifact envelope and returns the extended
// slice. The envelope shape records the streaming geometry ([Window,
// Step]) and its dtype the compiled width; the payload additionally
// carries a configuration fingerprint (threshold, budget tiers,
// hysteresis) so Restore refuses a snapshot from a differently-built
// cascade. The payload is staged in a scratch buffer the cascade owns
// and reuses, so a serving session checkpointing every stride
// allocates nothing at steady state once dst and the scratch have
// grown to size. dst may be nil.
func (c *CascadeOf[S]) AppendSnapshot(dst []byte) ([]byte, error) {
	c.snapScratch = c.appendStatePayload(c.snapScratch[:0])
	return artifact.AppendEnvelope(dst, StateKind, []int{c.det.Window, c.det.Step},
		tensor.PrecisionOf[S](), c.snapScratch)
}

// appendStatePayload appends the envelope payload — every mutable
// field plus the configuration fingerprint — to dst.
func (c *CascadeOf[S]) appendStatePayload(dst []byte) []byte {
	dst = artifact.AppendUint64(dst, cascadeStateVersion)
	dst = artifact.AppendFloat(dst, c.threshold)
	dst = artifact.AppendInt(dst, int(c.sup.minTier))
	dst = artifact.AppendInt(dst, c.sup.promoteHold)
	dst = artifact.AppendBool(dst, c.fallback != nil)

	dst = artifact.AppendInt(dst, c.samples)
	dst = artifact.AppendInt(dst, c.sinceEval)
	for _, n := range c.tierEvals {
		dst = artifact.AppendInt(dst, n)
	}
	dst = artifact.AppendInt(dst, int(c.sup.tier))
	dst = artifact.AppendInt(dst, c.sup.healthyRun)
	dst = artifact.AppendInt(dst, int(c.ceiling))
	dst = artifact.AppendInt(dst, c.t2.run)
	dst = artifact.AppendFloat(dst, c.t2.vel)
	return c.det.AppendState(dst)
}

// Restore applies an AppendSnapshot image to the cascade. The receiver must be
// built with the same configuration (geometry, threshold, budget,
// hysteresis, fallback presence) as the cascade that produced the
// snapshot; any mismatch — or any corruption, which the envelope digest
// catches first — yields an error. On error the cascade's state is
// unspecified: Reset it (or discard it) before pushing again.
func (c *CascadeOf[S]) Restore(rd io.Reader) error {
	h, payload, err := artifact.Read(rd)
	if err != nil {
		return fmt.Errorf("cascade: %w", err)
	}
	if err := artifact.CheckKind(h, StateKind); err != nil {
		return fmt.Errorf("cascade: %w", err)
	}
	if len(h.Shape) != 2 || h.Shape[0] != c.det.Window || h.Shape[1] != c.det.Step {
		return fmt.Errorf("cascade: snapshot geometry %v, cascade is [%d %d]",
			h.Shape, c.det.Window, c.det.Step)
	}
	if want := tensor.PrecisionOf[S](); h.DType != want {
		// The envelope-level check catches a width mismatch before any
		// payload decoding; the detector state carries (and re-checks)
		// its own dtype word.
		return fmt.Errorf("cascade: snapshot is %s state, cascade runs %s", h.DType, want)
	}
	r := artifact.NewStateReader(payload)
	if v := r.Uint64(); r.Err() == nil && v != cascadeStateVersion {
		return fmt.Errorf("cascade: snapshot state version %d, this build reads %d", v, cascadeStateVersion)
	}
	thr := r.Float()
	minWord := r.Int()
	hold := r.Int()
	hasFallback := r.Bool()
	if err := r.Err(); err != nil {
		return fmt.Errorf("cascade: %w", err)
	}
	minTier, err := tierWord(minWord, "min tier")
	if err != nil {
		return err
	}
	if math.Float64bits(thr) != math.Float64bits(c.threshold) ||
		minTier != c.sup.minTier || hold != c.sup.promoteHold ||
		hasFallback != (c.fallback != nil) {
		return fmt.Errorf("cascade: snapshot from a differently-configured cascade "+
			"(threshold %g/%g, min tier %v/%v, hold %d/%d, fallback %v/%v)",
			thr, c.threshold, minTier, c.sup.minTier, hold, c.sup.promoteHold,
			hasFallback, c.fallback != nil)
	}

	c.samples = r.Int()
	c.sinceEval = r.Int()
	for i := range c.tierEvals {
		c.tierEvals[i] = r.Int()
	}
	tierW := r.Int()
	c.sup.healthyRun = r.Int()
	ceilW := r.Int()
	c.t2.run = r.Int()
	c.t2.vel = r.Float()
	if err := r.Err(); err != nil {
		return fmt.Errorf("cascade: %w", err)
	}
	tier, err := tierWord(tierW, "supervisor tier")
	if err != nil {
		return err
	}
	if tier < minTier {
		return fmt.Errorf("cascade: snapshot supervisor tier %v outside [%v, %v]", tier, minTier, TierThreshold)
	}
	ceiling, err := tierWord(ceilW, "tier ceiling")
	if err != nil {
		return err
	}
	c.sup.tier = tier
	c.ceiling = ceiling
	if err := c.det.ReadState(r); err != nil {
		return err
	}
	if err := r.Close(); err != nil {
		return fmt.Errorf("cascade: %w", err)
	}
	return nil
}

// RestoreFresh reads a snapshot into the cascade, resetting first so a
// failed restore cannot leave half-applied state behind: on error the
// cascade is cold but coherent, exactly as after Reset.
func (c *CascadeOf[S]) RestoreFresh(rd io.Reader) error {
	c.Reset()
	if err := c.Restore(rd); err != nil {
		ceiling := c.ceiling
		c.Reset()
		c.ceiling = ceiling
		return err
	}
	return nil
}

// tierWord narrows a decoded tier word to a Tier. The range check runs
// on the int: narrowed first, a word of 256 would read as TierPrimary.
func tierWord(v int, what string) (Tier, error) {
	if v < int(TierPrimary) || v > int(TierThreshold) {
		return 0, fmt.Errorf("cascade: snapshot %s %d out of range", what, v)
	}
	return Tier(v), nil
}
