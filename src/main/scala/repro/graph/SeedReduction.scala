package repro.graph

/** The multi-seed → single-seed reduction of Section V of the paper.
  *
  * A unified seed `s'` replaces all seeds: for every non-seed vertex `u`
  * receiving edges from `h` seeds with probabilities `p_1..p_h`, those edges
  * are removed and one edge `s' -> u` with probability `1 - prod(1 - p_i)`
  * is added. Because an active vertex in the IC model has exactly one chance
  * to activate each out-neighbor, this preserves the distribution of the
  * spread over the non-seed vertices, and the optimal blocker set is
  * unchanged.
  */
object SeedReduction {

  /** Result of the reduction.
    *
    * @param graph     reduced graph over `g.n + 1` vertices; original ids are
    *                  preserved, the unified seed is vertex `superSeed = g.n`;
    *                  the original seeds become isolated vertices
    * @param superSeed id of the unified seed `s'`
    * @param seeds     the original seed set
    */
  final case class Reduced(graph: ProbGraph, superSeed: Int, seeds: Set[Int]) {

    /** Spread in original-graph accounting: the paper's E(S, G) counts every
      * seed with probability 1, while the reduced graph counts the single
      * `s'`; so `E_orig = |S| + (E_reduced - 1)`.
      */
    def toOriginalSpread(reducedSpread: Double): Double =
      seeds.size + (reducedSpread - 1.0)
  }

  /** Reject an empty seed set and seeds that are not vertices of `g`. */
  def requireSeeds(g: ProbGraph, seeds: Set[Int]): Unit = {
    require(seeds.nonEmpty, "seed set must be non-empty")
    seeds.foreach(s => require(s >= 0 && s < g.n, s"seed $s out of range"))
  }

  /** Reduce `(g, seeds)` to a single-seed instance. */
  def reduce(g: ProbGraph, seeds: Set[Int]): Reduced = {
    requireSeeds(g, seeds)
    val isSeed = new Array[Boolean](g.n)
    seeds.foreach(isSeed(_) = true)
    val superSeed = g.n

    // 1 - prod(1 - p_i) per target of any seed edge, accumulated as the
    // "miss" product to stay numerically simple.
    val missProduct = new Array[Double](g.n)
    java.util.Arrays.fill(missProduct, 1.0)

    val b = new ProbGraph.Builder(g.n + 1, g.m)
    var u = 0
    while (u < g.n) {
      var e = g.offsets(u)
      while (e < g.offsets(u + 1)) {
        val v = g.targets(e)
        if (isSeed(u)) {
          // seed -> non-seed folds into the s' edge; seed -> seed is
          // irrelevant: seeds are already active
          if (!isSeed(v)) missProduct(v) *= (1.0 - g.probs(e))
        } else if (!isSeed(v)) {
          b.add(u, v, g.probs(e)) // edges into seeds cannot change any state
        }
        e += 1
      }
      u += 1
    }
    var v = 0
    while (v < g.n) {
      val p = 1.0 - missProduct(v)
      if (p > 0.0) b.add(superSeed, v, p)
      v += 1
    }
    Reduced(b.result(), superSeed, seeds)
  }
}
