package repro.sampling

import org.apache.spark.sql.SparkSession
import repro.domtree.DominatorTree
import repro.graph.ProbGraph
import repro.util.{FanOut, Rng}

/** Algorithm 2 of the paper — DecreaseESComputation.
  *
  * For every vertex `u`, estimate the decrease of expected spread caused by
  * blocking `u`, as the average over θ sampled worlds of the size of the
  * subtree rooted at `u` in the dominator tree of the sampled graph
  * (Theorems 4 and 6). One dominator tree per sample gives the estimate for
  * *all* candidate blockers at once — this is the paper's key speedup over
  * per-candidate Monte-Carlo simulation.
  *
  * Already-blocked vertices come in as a vertex mask folded into the
  * live-edge predicate (an edge into a blocked vertex is never live), so
  * the graph is never rebuilt: edge ids, and with them every sampled world,
  * are the same in every round (see [[GraphSampler]]). Under a triggering
  * model other than IC a blocked vertex simply never activates; each
  * vertex's triggering draw still covers all its in-edges, which equals
  * drawing on the blocked graph whenever in-weights sum to at most 1
  * (always true under WC).
  *
  * The θ samples go through a [[repro.util.FanOut]]: each partition (the
  * driver's prefix of the ids, or one `spark.range` partition of the rest)
  * runs the sample→dominator-tree→subtree-size kernel with one reused
  * [[DominatorTree.Workspace]] and pre-aggregates into a partition-local Δ
  * array, so a Spark job is one narrow stage plus a merge of the collected
  * arrays. [[estimateOn]] takes a fan-out that lives for a whole AG/GR run,
  * so the graph is broadcast at most once per run.
  */
object DeltaEstimator {

  /** Add one sampled world's subtree sizes into `acc` (length ≥ g.n), with
    * `blocked` vertices (null for none) never activated.
    */
  def accumulateSample(
      g: ProbGraph,
      root: Int,
      sampleSeed: Long,
      acc: Array[Double],
      ws: DominatorTree.Workspace,
      model: TriggeringModel = TriggeringModel.IndependentCascade,
      blocked: Array[Boolean] = null): Unit = {
    val live = model.liveEdge(g, sampleSeed)
    val keep = if (blocked == null) live else (e: Int) => !blocked(g.targets(e)) && live(e)
    val dt = DominatorTree.compute(g, root, keep, ws)
    val sizes = dt.subtreeSizes
    var i = 1 // skip the root: it is not a candidate blocker
    while (i < dt.count) {
      acc(dt.vertexOf(i)) += sizes(i)
      i += 1
    }
  }

  /** Sum of `ids`' worlds into a fresh Δ array (not yet divided by θ). */
  private def sampleSum(
      g: ProbGraph,
      root: Int,
      ids: Iterator[Long],
      masterSeed: Long,
      model: TriggeringModel,
      blocked: Array[Boolean]): Array[Double] = {
    val acc = new Array[Double](g.n)
    val ws = new DominatorTree.Workspace(g.n)
    ids.foreach(id => accumulateSample(g, root, Rng.sampleSeed(masterSeed, id), acc, ws, model, blocked))
    acc
  }

  /** Driver-side estimate (reference implementation, used by tests and by
    * small-graph paths where a Spark job is overkill).
    */
  def estimateLocal(
      g: ProbGraph,
      root: Int,
      theta: Int,
      masterSeed: Long,
      model: TriggeringModel = TriggeringModel.IndependentCascade,
      blocked: Array[Boolean] = null): Array[Double] =
    estimateOn(FanOut.local(g), root, theta, masterSeed, model, blocked)

  /** Estimate with every sample on Spark, the graph broadcast for this
    * call alone. Returns Δ[u] for every vertex id.
    */
  def estimate(
      spark: SparkSession,
      g: ProbGraph,
      root: Int,
      theta: Int,
      masterSeed: Long,
      model: TriggeringModel = TriggeringModel.IndependentCascade): Array[Double] =
    FanOut.sparkOnly(spark, g)(estimateOn(_, root, theta, masterSeed, model, blocked = null))

  /** θ samples of the fan-out's graph, with `blocked` vertices (null for
    * none) masked, one Δ array per partition, summed and divided by θ.
    * Every split between driver and Spark agrees exactly: per-world sums
    * are integers.
    */
  def estimateOn(
      fan: FanOut[ProbGraph],
      root: Int,
      theta: Int,
      masterSeed: Long,
      model: TriggeringModel,
      blocked: Array[Boolean]): Array[Double] = {
    require(theta >= 1, "theta must be positive")
    val acc = fan.reduce(theta.toLong)((g, ids) => sampleSum(g, root, ids, masterSeed, model, blocked)) { (a, b) =>
      var v = 0
      while (v < a.length) { a(v) += b(v); v += 1 }
      a
    }
    var v = 0
    while (v < acc.length) { acc(v) /= theta; v += 1 }
    acc
  }
}
