package repro.sampling

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.domtree.DominatorTree
import repro.graph.ProbGraph
import repro.util.Rng

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
  * The distributed path fans the θ samples out over a `spark.range(θ)`
  * Dataset; each task runs the sample→dominator-tree→subtree-size kernel on
  * the broadcast graph with one reused [[DominatorTree.Workspace]] and
  * pre-aggregates into a partition-local Δ array, so one job is one narrow
  * stage plus a driver-side merge. [[estimateOn]] takes a graph broadcast
  * once per AG/GR run. [[pairsDF]] exposes the raw `(sample, vertex, size)`
  * dataflow for the DuckDB oracle and for SQL-style aggregation.
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
      blocked: Array[Boolean] = null): Array[Double] = {
    require(theta >= 1, "theta must be positive")
    val acc = sampleSum(g, root, Iterator.range(0, theta).map(_.toLong), masterSeed, model, blocked)
    var v = 0
    while (v < g.n) { acc(v) /= theta; v += 1 }
    acc
  }

  /** Distributed estimate: broadcast `g`, run [[estimateOn]], destroy the
    * broadcast. Returns Δ[u] for every vertex id.
    */
  def estimate(
      spark: SparkSession,
      g: ProbGraph,
      root: Int,
      theta: Int,
      masterSeed: Long,
      model: TriggeringModel = TriggeringModel.IndependentCascade): Array[Double] = {
    val bc = spark.sparkContext.broadcast(g)
    try estimateOn(spark, bc, root, theta, masterSeed, model, blocked = null)
    finally bc.destroy()
  }

  /** θ samples of the broadcast graph, with `blocked` vertices (null for
    * none) masked, fanned out over the cluster, one partition-local Δ array
    * per task, merged on the driver. Equals [[estimateLocal]] exactly:
    * per-world sums are integers.
    */
  def estimateOn(
      spark: SparkSession,
      graph: Broadcast[ProbGraph],
      root: Int,
      theta: Int,
      masterSeed: Long,
      model: TriggeringModel,
      blocked: Array[Boolean]): Array[Double] = {
    require(theta >= 1, "theta must be positive")
    import spark.implicits._
    val partials = spark
      .range(theta)
      .as[Long]
      .mapPartitions { ids =>
        if (ids.hasNext) Iterator.single(sampleSum(graph.value, root, ids, masterSeed, model, blocked))
        else Iterator.empty
      }
      .collect()
    val n = graph.value.n
    val acc = new Array[Double](n)
    for (p <- partials) {
      var v = 0
      while (v < n) { acc(v) += p(v); v += 1 }
    }
    var v = 0
    while (v < n) { acc(v) /= theta; v += 1 }
    acc
  }

  /** Raw per-sample dataflow: `DataFrame(sample, vertex, size)` with one row
    * per (sampled world, dominator-tree vertex). Feeds [[estimateDF]] and the
    * DuckDB oracle tests.
    */
  def pairsDF(
      spark: SparkSession,
      g: ProbGraph,
      root: Int,
      theta: Int,
      masterSeed: Long): DataFrame = {
    import spark.implicits._
    val bc = spark.sparkContext.broadcast(g)
    spark
      .range(theta)
      .as[Long]
      .flatMap { id =>
        val graph = bc.value
        val dt = DominatorTree.compute(graph, root, GraphSampler.liveEdge(graph, Rng.sampleSeed(masterSeed, id)))
        val sizes = dt.subtreeSizes
        (1 until dt.count).iterator.map(i => (id, dt.vertexOf(i), sizes(i)))
      }
      .toDF("sample", "vertex", "size")
  }

  /** DataFrame variant of the estimate: `(vertex, delta)` via a Spark SQL
    * aggregation over [[pairsDF]] (vertices never reachable in any sample are
    * absent — their Δ is 0).
    */
  def estimateDF(
      spark: SparkSession,
      g: ProbGraph,
      root: Int,
      theta: Int,
      masterSeed: Long): DataFrame =
    pairsDF(spark, g, root, theta, masterSeed)
      .groupBy(col("vertex"))
      .agg((sum(col("size")) / lit(theta.toDouble)).as("delta"))
}
