package repro.sampling

import repro.graph.ProbGraph
import repro.util.Rng

/** Live-edge sampling of the IC model (Definition 4 of the paper): the
  * world keyed by `sampleSeed` keeps each edge `e` independently with
  * probability `p(e)`. Decisions are pure hashes of `(sampleSeed, e)`
  * ([[repro.util.Rng]]), so the same world is seen regardless of traversal
  * order. Every algorithm blocks by a vertex mask over one (seed-reduced)
  * graph instead of rebuilding it, so edge ids, and the world, are also
  * the same regardless of blocker set — common random numbers across all
  * algorithms.
  */
object GraphSampler {

  /** Edge predicate of the sampled world `sampleSeed`. */
  def liveEdge(g: ProbGraph, sampleSeed: Long): Int => Boolean =
    (e: Int) => Rng.edgeKeep(sampleSeed, e, g.probs(e))

  /** Materialized live-edge mask (tests / oracle paths). */
  def edgeMask(g: ProbGraph, sampleSeed: Long): Array[Boolean] =
    Array.tabulate(g.m)(liveEdge(g, sampleSeed))

  /** Number of vertices reachable from `roots` in the sampled world (σ of
    * Table II, generalized to a root set), optionally with blocked vertices.
    * A blocked root counts as not reachable.
    */
  def reachCount(
      g: ProbGraph,
      roots: Array[Int],
      sampleSeed: Long,
      blocked: Array[Boolean] = null): Int = {
    val vis = new Array[Boolean](g.n)
    val stack = new Array[Int](g.n)
    var sp = 0
    var count = 0
    var i = 0
    while (i < roots.length) {
      val r = roots(i)
      if (!vis(r) && (blocked == null || !blocked(r))) {
        vis(r) = true; count += 1; stack(sp) = r; sp += 1
      }
      i += 1
    }
    while (sp > 0) {
      sp -= 1
      val u = stack(sp)
      g.foreachOut(u) { (e, v, p) =>
        if (!vis(v) && (blocked == null || !blocked(v)) && Rng.edgeKeep(sampleSeed, e, p)) {
          vis(v) = true; count += 1; stack(sp) = v; sp += 1
        }
      }
    }
    count
  }

  /** Reachable vertex set (test-friendly variant of [[reachCount]]). */
  def reachSet(
      g: ProbGraph,
      roots: Array[Int],
      sampleSeed: Long,
      blocked: Array[Boolean] = null): Set[Int] = {
    val vis = new Array[Boolean](g.n)
    val stack = new Array[Int](g.n)
    var sp = 0
    var i = 0
    while (i < roots.length) {
      val r = roots(i)
      if (!vis(r) && (blocked == null || !blocked(r))) { vis(r) = true; stack(sp) = r; sp += 1 }
      i += 1
    }
    while (sp > 0) {
      sp -= 1
      val u = stack(sp)
      g.foreachOut(u) { (e, v, p) =>
        if (!vis(v) && (blocked == null || !blocked(v)) && Rng.edgeKeep(sampleSeed, e, p)) {
          vis(v) = true; stack(sp) = v; sp += 1
        }
      }
    }
    (0 until g.n).filter(vis).toSet
  }
}
