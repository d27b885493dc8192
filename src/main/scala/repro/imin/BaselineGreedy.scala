package repro.imin

import org.apache.spark.sql.SparkSession
import repro.graph.ProbGraph
import repro.sampling.GraphSampler
import repro.spread.MonteCarloSpread
import repro.util.{FanOut, Rng}
import scala.collection.mutable.ArrayBuffer

/** BaselineGreedy (Algorithm 1) — the state of the art the paper compares
  * against [2], [8]: in every round, re-estimate the expected spread of
  * blocking each candidate with Monte-Carlo Simulations and block the
  * vertex whose removal minimizes it. O(b·n·r·m) — this is the algorithm
  * AG beats by orders of magnitude while matching its choices.
  *
  * All candidates in a round share the same `r` sampled worlds (common
  * random numbers), which both reduces variance and makes BG's round-`i`
  * choice comparable to AG's estimate semantics.
  */
object BaselineGreedy {

  /** Run BG and return the blocker insertion order. Each round's candidate
    * sweep runs on the driver until it takes longer than a Spark job, then
    * fans the remaining candidates out over Spark (one task evaluates r
    * simulations for a slice of candidates) on a graph broadcast at most
    * once per run ([[repro.util.FanOut]]).
    */
  def run(
      spark: SparkSession,
      g: ProbGraph,
      seeds: Set[Int],
      b: Int,
      r: Int,
      masterSeed: Long): Seq[Int] = {
    require(b >= 1 && r >= 1, "b and r must be positive")
    val (red, notSeed) = Blocking.reduced(g, seeds)
    val rg = red.graph
    val roots = Array(red.superSeed)
    val blocked = new Array[Boolean](rg.n)
    val order = ArrayBuffer.empty[Int]
    // Candidates that can ever matter; others decrease nothing.
    val support = GraphSampler.support(rg, roots)

    FanOut(spark, rg) { fan =>
      var i = 0
      var exhausted = false
      while (i < b && !exhausted) {
        val roundSeed = Rng.splitmix64(masterSeed ^ (i + 1).toLong)
        val candidates = (0 until rg.n).filter(v => support(v) && !blocked(v) && notSeed(v)).toArray
        if (candidates.isEmpty) exhausted = true
        else {
          val base = MonteCarloSpread.reachSum(rg, roots, (0L until r).iterator, roundSeed, blocked)
          // Max decrease == min spread; candidates ascend, so the smallest
          // index breaks ties by smallest id.
          val (sum, k) = Blocking.minReachSum(fan, candidates.length) { graph =>
            val mask = blocked.clone() // one copy per partition
            k => {
              val x = candidates(k.toInt)
              mask(x) = true
              val s = MonteCarloSpread.reachSum(graph, roots, (0L until r).iterator, roundSeed, mask)
              mask(x) = false
              s
            }
          }
          if (base - sum <= 0L) exhausted = true
          else { val x = candidates(k.toInt); blocked(x) = true; order += x }
        }
        i += 1
      }
    }
    order.toSeq
  }
}
