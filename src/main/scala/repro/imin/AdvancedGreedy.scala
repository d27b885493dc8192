package repro.imin

import org.apache.spark.sql.SparkSession
import repro.graph.ProbGraph
import repro.sampling.TriggeringModel
import repro.util.Rng
import scala.collection.mutable.ArrayBuffer

/** AdvancedGreedy (Algorithm 3 of the paper): in each of the `b` rounds,
  * estimate the spread decrease of *every* candidate blocker at once with
  * DecreaseESComputation (sampled graphs + dominator trees, Algorithm 2)
  * on the currently blocked graph, and block the maximizer.
  *
  * With θ = r and the same master seed, every round samples exactly
  * BaselineGreedy's worlds (both key them by reduced-graph edge id and mask
  * the blocked vertices), so by Theorem 6 AG chooses BG's blockers in BG's
  * order (§V-C), at a per-round cost of O(θ·m·α(m,n)) instead of O(n·r·m).
  */
object AdvancedGreedy {

  /** Run AG and return the blocker insertion order (≤ b vertices — selection
    * stops early once no candidate can decrease the spread). Each round's θ
    * samples run on the driver, or partly on Spark when they take longer
    * than a Spark job ([[repro.util.FanOut]]); the blockers are the same.
    */
  def run(
      spark: SparkSession,
      g: ProbGraph,
      seeds: Set[Int],
      b: Int,
      theta: Int,
      masterSeed: Long,
      model: TriggeringModel = TriggeringModel.IndependentCascade): Seq[Int] =
    runWithCheckpoints(spark, g, seeds, Seq(b), theta, masterSeed, model)(b)

  /** Run AG once up to `budgets.max` and return the blocker prefix at every
    * requested budget (greedy selection is prefix-monotone, so one pass
    * serves a whole budget sweep).
    */
  def runWithCheckpoints(
      spark: SparkSession,
      g: ProbGraph,
      seeds: Set[Int],
      budgets: Seq[Int],
      theta: Int,
      masterSeed: Long,
      model: TriggeringModel = TriggeringModel.IndependentCascade): Map[Int, Seq[Int]] = {
    require(budgets.nonEmpty && budgets.forall(_ >= 1), "budgets must be positive")
    val b = budgets.max
    val (red, notSeed) = Blocking.reduced(g, seeds)
    val blocked = new Array[Boolean](red.graph.n)
    val order = ArrayBuffer.empty[Int]

    Blocking.withDeltas(spark, red.graph, red.superSeed, theta, model) { deltas =>
      var i = 0
      var exhausted = false
      while (i < b && !exhausted) {
        val delta = deltas(blocked, Rng.splitmix64(masterSeed ^ (i + 1).toLong))
        val x = Blocking.argmaxDelta(delta, v => !blocked(v) && notSeed(v))
        if (x < 0 || delta(x) <= 0.0) exhausted = true // nothing left to gain
        else { blocked(x) = true; order += x }
        i += 1
      }
    }
    budgets.map(k => k -> order.take(k).toSeq).toMap
  }
}
