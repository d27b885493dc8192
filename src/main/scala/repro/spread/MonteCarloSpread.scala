package repro.spread

import org.apache.spark.sql.SparkSession
import repro.graph.ProbGraph
import repro.sampling.GraphSampler
import repro.util.{FanOut, Rng}

/** Monte-Carlo Simulation (MCS) estimation of the expected spread — the
  * spread oracle of the paper's baselines [7]: each simulation keeps every
  * edge with its propagation probability and counts the vertices reachable
  * from the seeds (Lemma 1). All simulations are keyed by pure per-sample
  * seeds, so evaluations of different blocker sets under the same
  * `masterSeed` use common random numbers (identical sampled worlds).
  */
object MonteCarloSpread {

  /** Driver-side estimate over `r` simulations. */
  def spreadLocal(
      g: ProbGraph,
      roots: Array[Int],
      r: Int,
      masterSeed: Long,
      blocked: Array[Boolean] = null): Double =
    spreadOn(FanOut.local(g), roots, r, masterSeed, blocked)

  /** Estimate with every simulation on Spark: `r` simulations fanned out
    * over `spark.range(r)`, partition-local sums of reach counts, merged on
    * the driver.
    */
  def spread(
      spark: SparkSession,
      g: ProbGraph,
      roots: Array[Int],
      r: Int,
      masterSeed: Long,
      blocked: Array[Boolean] = null): Double =
    FanOut.sparkOnly(spark, g)(spreadOn(_, roots, r, masterSeed, blocked))

  private def spreadOn(
      fan: FanOut[ProbGraph],
      roots: Array[Int],
      r: Int,
      masterSeed: Long,
      blocked: Array[Boolean]): Double = {
    require(r >= 1, "r must be positive")
    fan.reduce(r.toLong)((g, ids) => reachSum(g, roots, ids, masterSeed, blocked))(_ + _).toDouble / r
  }

  /** Total reach count of `roots` over the worlds `ids` of `masterSeed`,
    * with `blocked` vertices (null for none) masked. One `vis` map and
    * stack serve every world: `vis` is reset by walking the vertices the
    * last world reached.
    */
  def reachSum(
      g: ProbGraph,
      roots: Array[Int],
      ids: Iterator[Long],
      masterSeed: Long,
      blocked: Array[Boolean]): Long = {
    val vis = new Array[Boolean](g.n)
    val stack = new Array[Int](g.n)
    var sum = 0L
    ids.foreach { id =>
      val count = GraphSampler.reach(g, roots, blocked, GraphSampler.world(Rng.sampleSeed(masterSeed, id)), vis, stack)
      var i = 0
      while (i < count) { vis(stack(i)) = false; i += 1 }
      sum += count
    }
    sum
  }
}
