package repro.sampling

import repro.graph.ProbGraph
import repro.util.Rng

/** Live-edge sampling of the IC model (Definition 4 of the paper): the
  * world keyed by `sampleSeed` keeps each edge `e` independently with
  * probability `p(e)`. Decisions are pure hashes of `(sampleSeed, e)`
  * ([[repro.util.Rng]]), so the same world is seen regardless of traversal
  * order. Blocked vertices are a mask over the sampled graph, never a
  * rebuild, so edge ids, and the world, are also the same regardless of
  * blocker set — common random numbers between the blocker sets one
  * algorithm compares (AG/GR/BG sample the seed-reduced graph, Exact and
  * MCS the original one).
  *
  * [[reach]] is the one reachability kernel: MCS, BG and Exact count it,
  * and the candidate filters of BG and Exact take its positive-probability
  * [[support]].
  */
object GraphSampler {

  /** Edge predicate of the sampled world `sampleSeed`. */
  def liveEdge(g: ProbGraph, sampleSeed: Long): Int => Boolean =
    (e: Int) => Rng.edgeKeep(sampleSeed, e, g.probs(e))

  /** Materialized live-edge mask (tests / oracle paths). */
  def edgeMask(g: ProbGraph, sampleSeed: Long): Array[Boolean] =
    Array.tabulate(g.m)(liveEdge(g, sampleSeed))

  /** Graph search from `roots` over the edges `e` (probability `p`) with
    * `keep(e, p)`, never entering a `blocked` vertex (null for none; a
    * blocked root is not reached). Marks the reached vertices in `vis`
    * (length `g.n`, owned by the caller, unmarked on entry) and returns
    * how many it marked. The work list `stack` (length ≥ `g.n`; null for
    * a fresh one) ends holding the reached vertices in its first `count`
    * slots, so a caller can unmark `vis` in O(count) and reuse both.
    */
  def reach(
      g: ProbGraph,
      roots: Array[Int],
      blocked: Array[Boolean],
      keep: (Int, Double) => Boolean,
      vis: Array[Boolean],
      stack: Array[Int] = null): Int = {
    val list = if (stack == null) new Array[Int](g.n) else stack
    var count = 0
    var i = 0
    while (i < roots.length) {
      val r = roots(i)
      if (!vis(r) && (blocked == null || !blocked(r))) { vis(r) = true; list(count) = r; count += 1 }
      i += 1
    }
    var next = 0 // list(next until count) are reached but not yet expanded
    while (next < count) {
      val u = list(next)
      next += 1
      var e = g.offsets(u)
      val end = g.offsets(u + 1)
      while (e < end) {
        val v = g.targets(e)
        if (!vis(v) && (blocked == null || !blocked(v)) && keep(e, g.probs(e))) {
          vis(v) = true; list(count) = v; count += 1
        }
        e += 1
      }
    }
    count
  }

  /** Edge test of the sampled world `sampleSeed`, in [[reach]]'s form. */
  def world(sampleSeed: Long): (Int, Double) => Boolean =
    (e: Int, p: Double) => Rng.edgeKeep(sampleSeed, e, p)

  /** Number of vertices reachable from `roots` in the sampled world (σ of
    * Table II, generalized to a root set), optionally with blocked vertices.
    * A blocked root counts as not reachable.
    */
  def reachCount(
      g: ProbGraph,
      roots: Array[Int],
      sampleSeed: Long,
      blocked: Array[Boolean] = null): Int =
    reach(g, roots, blocked, world(sampleSeed), new Array[Boolean](g.n))

  /** Reachable vertex set (test-friendly variant of [[reachCount]]). */
  def reachSet(
      g: ProbGraph,
      roots: Array[Int],
      sampleSeed: Long,
      blocked: Array[Boolean] = null): Set[Int] = {
    val vis = new Array[Boolean](g.n)
    reach(g, roots, blocked, world(sampleSeed), vis)
    (0 until g.n).filter(vis).toSet
  }

  /** Vertices reachable from `roots` through positive-probability edges:
    * every vertex some sampled world can reach. Blocking any other vertex
    * decreases no spread.
    */
  def support(g: ProbGraph, roots: Array[Int]): Array[Boolean] = {
    val vis = new Array[Boolean](g.n)
    reach(g, roots, null, (_, p) => p > 0.0, vis)
    vis
  }
}
