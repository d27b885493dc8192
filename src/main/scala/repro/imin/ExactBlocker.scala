package repro.imin

import org.apache.spark.sql.SparkSession
import repro.graph.{ProbGraph, SeedReduction}
import repro.sampling.GraphSampler
import repro.spread.MonteCarloSpread
import repro.util.FanOut

/** The Exact baseline of §VI-A: enumerate *every* blocker set of size `b`
  * and keep the one with the smallest expected spread.
  *
  * Spread of each candidate set is evaluated on a fixed pool of `thetaEval`
  * sampled worlds keyed by `masterSeed` — common random numbers, so the
  * comparison between candidate sets (and later against GR) is exact on the
  * sampled measure, mirroring the paper's exact-spread evaluation [39] of
  * its small extracts. The `C(candidates, b)` combinations are unranked
  * combinatorially from their indices, which run on the driver and, once
  * that takes longer than a Spark job, over a `spark.range` of the
  * remaining indices ([[repro.util.FanOut]]).
  */
object ExactBlocker extends Serializable {

  /** Binomial coefficient C(n, r), saturating at `Long.MaxValue`. */
  def choose(n: Int, r: Int): Long = {
    if (r < 0 || r > n) return 0L
    var acc = 1L // C(n, i)
    var i = 0
    while (i < math.min(r, n - r)) {
      // C(n, i + 1) = C(n, i) * (n - i) / (i + 1) exactly; dividing by
      // g = gcd(acc, i + 1) first leaves (i + 1) / g dividing n - i, so the
      // only product is the result itself, and C(n, ·) grows up to n / 2.
      val g = gcd(acc, i + 1L)
      val hi = acc / g
      val lo = (n - i) / ((i + 1) / g)
      if (hi > Long.MaxValue / lo) return Long.MaxValue
      acc = hi * lo
      i += 1
    }
    acc
  }

  @scala.annotation.tailrec
  private def gcd(a: Long, b: Long): Long = if (b == 0L) a else gcd(b, a % b)

  /** Colexicographic unranking: the `idx`-th `b`-subset of `0 until k`,
    * as positions into the candidate array.
    */
  def unrank(idx: Long, b: Int): Array[Int] = {
    val out = new Array[Int](b)
    var rem = idx
    var j = b
    while (j >= 1) {
      var c = j - 1
      while (choose(c + 1, j) <= rem) c += 1
      out(j - 1) = c
      rem -= choose(c, j)
      j -= 1
    }
    out
  }

  /** Exhaustive search over all `b`-subsets of the blockable candidates.
    *
    * Candidates are the non-seed vertices reachable from the seeds through
    * positive-probability edges — blocking anything else decreases nothing,
    * so the restriction preserves the optimal spread value.
    *
    * @return (optimal blocker set, its estimated spread under the fixed pool)
    */
  def run(
      spark: SparkSession,
      g: ProbGraph,
      seeds: Set[Int],
      b: Int,
      thetaEval: Int,
      masterSeed: Long): (Seq[Int], Double) = {
    require(b >= 1 && thetaEval >= 1, "b and thetaEval must be positive")
    SeedReduction.requireSeeds(g, seeds)
    val roots = seeds.toArray.sorted
    val support = GraphSampler.support(g, roots)
    val candidates = (0 until g.n).filter(v => support(v) && !seeds.contains(v)).toArray
    val bEff = math.min(b, candidates.length)
    require(bEff >= 1, "no blockable candidate is reachable from the seeds")
    val nCombos = choose(candidates.length, bEff)
    require(nCombos < Long.MaxValue,
      s"C(${candidates.length}, $bEff) blocker sets overflow a Long: too many to enumerate")

    val (bestSum, bestIdx) = FanOut(spark, g) { fan =>
      Blocking.minReachSum(fan, nCombos) { graph =>
        val mask = new Array[Boolean](graph.n) // one per partition
        idx => {
          val set = unrank(idx, bEff).map(candidates(_))
          set.foreach(mask(_) = true)
          val s = MonteCarloSpread.reachSum(graph, roots, (0L until thetaEval).iterator, masterSeed, mask)
          set.foreach(mask(_) = false)
          s
        }
      }
    }
    val blockers = unrank(bestIdx, bEff).map(candidates(_)).toSeq
    (blockers, bestSum.toDouble / thetaEval)
  }
}
