package repro.imin

import org.apache.spark.sql.SparkSession
import repro.graph.{ProbGraph, SeedReduction}
import repro.sampling.{DeltaEstimator, TriggeringModel}
import repro.util.FanOut

/** Shared plumbing for the blocker-selection algorithms. */
object Blocking {

  /** Boolean mask over `n` vertices from a blocker collection. */
  def maskOf(n: Int, blockers: Iterable[Int]): Array[Boolean] = {
    val mask = new Array[Boolean](n)
    blockers.foreach(mask(_) = true)
    mask
  }

  /** Deterministic argmax of `delta` over vertices satisfying `allowed`:
    * largest delta, ties broken by smallest id; -1 when nothing is allowed.
    */
  def argmaxDelta(delta: Array[Double], allowed: Int => Boolean): Int = {
    var best = -1
    var v = 0
    while (v < delta.length) {
      if (allowed(v) && (best == -1 || delta(v) > delta(best))) best = v
      v += 1
    }
    best
  }

  /** Reduce to a single-seed instance and build the candidate filter: the
    * unified seed and the (now isolated) original seeds are never blockable.
    */
  def reduced(g: ProbGraph, seeds: Set[Int]): (SeedReduction.Reduced, Int => Boolean) = {
    val red = SeedReduction.reduce(g, seeds)
    val notSeed = (v: Int) => v != red.superSeed && !seeds.contains(v)
    (red, notSeed)
  }

  /** Run `body` with the Δ estimator of one AG/GR run on the reduced graph
    * `rg`: `deltas(blocked, roundSeed)` estimates Δ with θ samples keyed by
    * `roundSeed` and the `blocked` vertices masked out. One fan-out serves
    * the whole run, so `rg` is broadcast at most once, the first time a
    * round's samples go to Spark; any split gives the same numbers.
    */
  def withDeltas[T](
      spark: SparkSession,
      rg: ProbGraph,
      root: Int,
      theta: Int,
      model: TriggeringModel)(body: ((Array[Boolean], Long) => Array[Double]) => T): T =
    FanOut(spark, rg) { fan =>
      body((blocked, roundSeed) => DeltaEstimator.estimateOn(fan, root, theta, roundSeed, model, blocked))
    }

  /** The `(sum, id)` with the smallest reach sum over the choices `0 until
    * count`, ties broken by smallest id, where `sumOf(value)(id)` is choice
    * `id`'s total reach over a fixed pool of sampled worlds (BG's candidate
    * sweep, Exact's blocker-set enumeration). `sumOf(value)` is called once
    * per partition, so it can set up scratch shared by that partition's ids.
    */
  def minReachSum[B](fan: FanOut[B], count: Long)(sumOf: B => Long => Long): (Long, Long) =
    fan.reduce(count) { (value, ids) =>
      val sum = sumOf(value)
      ids.map(id => (sum(id), id)).min
    }(Ordering[(Long, Long)].min)
}
