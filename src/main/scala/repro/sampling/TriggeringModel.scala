package repro.sampling

import repro.graph.ProbGraph
import repro.util.Rng

/** The triggering model (§V-E): every vertex `u` has a distribution `T(u)`
  * over subsets of its in-neighbors; a sampled world keeps the incoming
  * edge `(w, u)` iff `w` is in the drawn triggering set of `u`.
  *
  * The IC model is the special case where each in-neighbor enters the
  * triggering set independently with the edge probability — which is how
  * AG/GR support the generalization: any [[TriggeringModel]] yields live-edge
  * predicates that plug into the same dominator-tree machinery.
  */
trait TriggeringModel extends Serializable {

  /** Live-edge predicate of the world keyed by `sampleSeed`. */
  def liveEdge(g: ProbGraph, sampleSeed: Long): Int => Boolean
}

object TriggeringModel {

  /** IC as a triggering model: edgewise-independent inclusion. */
  case object IndependentCascade extends TriggeringModel {
    def liveEdge(g: ProbGraph, sampleSeed: Long): Int => Boolean =
      GraphSampler.liveEdge(g, sampleSeed)
  }

  /** LT-style triggering: each vertex draws *at most one* incoming live edge,
    * with the edge probabilities as weights (the classic live-edge view of
    * the Linear Threshold model; weights are normalized if they sum > 1).
    * The draw covers all in-edges, blocked sources included: a blocked
    * vertex never activates, so an edge drawn from it is dead. That equals
    * drawing on the graph without blocked vertices whenever in-weights sum
    * to at most 1 (always true under WC).
    */
  case object LinearThreshold extends TriggeringModel {
    def liveEdge(g: ProbGraph, sampleSeed: Long): Int => Boolean = {
      // One weighted draw per *target* vertex over its in-edges (edge ids of
      // the reverse graph differ from g's, so the chosen in-edge of each
      // vertex is computed directly from g's edge list).
      val chosen = new Array[Int](g.n)
      java.util.Arrays.fill(chosen, -1)
      val inW = new Array[Double](g.n)
      var u = 0
      while (u < g.n) {
        g.foreachOut(u) { (_, v, p) => inW(v) += p }
        u += 1
      }
      val draw = new Array[Double](g.n)
      var v = 0
      while (v < g.n) {
        draw(v) = Rng.toUnitDouble(Rng.splitmix64(sampleSeed ^ (v.toLong + 1) * 0x9e3779b97f4a7c15L)) *
          math.max(1.0, inW(v))
        v += 1
      }
      // Walk edges in CSR order accumulating weight per target; the edge
      // whose cumulative window contains the draw is the live one.
      val acc = new Array[Double](g.n)
      u = 0
      while (u < g.n) {
        g.foreachOut(u) { (e, t, p) =>
          val lo = acc(t); val hi = lo + p
          if (draw(t) >= lo && draw(t) < hi) chosen(t) = e
          acc(t) = hi
        }
        u += 1
      }
      (e: Int) => {
        val t = g.targets(e)
        chosen(t) == e
      }
    }
  }
}
