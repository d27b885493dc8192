package repro.util

/** Deterministic, stateless pseudo-randomness for live-edge sampling.
  *
  * The IC live-edge sampler must decide, for a given (sample, edge) pair,
  * whether the edge survives — and the decision must be *independent of
  * traversal order* so that the same sampled world is seen by every
  * algorithm that evaluates it (common random numbers for BaselineGreedy,
  * ExactBlocker and the estimators). A stateful `java.util.Random` stream
  * would misalign as soon as two traversals visit edges in different
  * orders, so every decision here is a pure hash of (sampleSeed, edgeId).
  * Edge ids are those of the graph an algorithm samples (the seed-reduced
  * graph for AG/GR/BG); blocked vertices are masked, never renumbered.
  */
object Rng {
  private final val Golden = 0x9e3779b97f4a7c15L

  /** SplitMix64 finalizer — a high-quality 64-bit mixing function. */
  def splitmix64(x0: Long): Long = {
    var x = x0 + Golden
    x = (x ^ (x >>> 30)) * 0xbf58476d1ce4e5b9L
    x = (x ^ (x >>> 27)) * 0x94d049bb133111ebL
    x ^ (x >>> 31)
  }

  /** Map a 64-bit hash to a double uniform in [0, 1). */
  def toUnitDouble(x: Long): Double = (x >>> 11) * 1.1102230246251565e-16 // 2^-53

  /** Seed for the `id`-th sampled world derived from a master seed. */
  def sampleSeed(master: Long, id: Long): Long =
    splitmix64(master ^ splitmix64(id))

  /** Pure uniform draw for edge `edge` in the world keyed by `sampleSeed`. */
  def edgeUniform(sampleSeed: Long, edge: Int): Double =
    toUnitDouble(splitmix64(sampleSeed + (edge.toLong + 1L) * Golden))

  /** Live-edge decision: does edge `edge` with probability `p` survive? */
  def edgeKeep(sampleSeed: Long, edge: Int, p: Double): Boolean =
    p >= 1.0 || (p > 0.0 && edgeUniform(sampleSeed, edge) < p)
}
