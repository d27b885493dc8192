package repro.sampling

import repro.{Oracle, SparkSpec}
import repro.graph.{ProbGraph, ToyGraph}
import repro.util.Rng

class GraphSamplerSpec extends SparkSpec {

  private val g = ToyGraph.graph

  /** Kernel reach without blocking; also checks its count against its marks. */
  private def kernelReach(h: ProbGraph, roots: Int*)(keep: (Int, Double) => Boolean): Set[Int] = {
    val vis = new Array[Boolean](h.n)
    val count = GraphSampler.reach(h, roots.toArray, null, keep, vis)
    val reached = (0 until h.n).filter(vis).toSet
    assert(count == reached.size)
    reached
  }

  private val everyEdge = (_: Int, _: Double) => true

  /** The `(src, dst)` edges of `h` that pass `keep`, as a DataFrame. */
  private def edgesDF(h: ProbGraph, keep: Int => Boolean) = {
    import spark.implicits._
    (0 until h.n)
      .flatMap(u => (h.offsets(u) until h.offsets(u + 1)).filter(keep).map(e => (u, h.targets(e))))
      .toDF("src", "dst")
  }

  /** Reference reach: grow `roots` over the `live` edges until nothing changes. */
  private def closure(h: ProbGraph, roots: Set[Int], live: Int => Boolean): Set[Int] = {
    val edges = h.edgeTriples.zipWithIndex.collect { case ((u, w, _), e) if live(e) => (u, w) }
    var reached = roots
    var grown = true
    while (grown) {
      val next = reached ++ edges.collect { case (u, w) if reached(u) => w }
      grown = next.size > reached.size
      reached = next
    }
    reached
  }

  /** DuckDB reachability from `root` over `edges`, never entering `banned`. */
  private def recursiveReach(root: Int, banned: String = "TRUE") =
    s"""WITH RECURSIVE reach AS (
       |  SELECT '$root' AS vertex
       |  UNION
       |  SELECT e.dst AS vertex FROM edges e JOIN reach r ON e.src = r.vertex WHERE $banned
       |) SELECT vertex FROM reach""".stripMargin

  test("edgeMask keeps certain edges in every sample") {
    for (id <- 0L until 50L) {
      val mask = GraphSampler.edgeMask(g, Rng.sampleSeed(1L, id))
      for ((e, i) <- g.edgeTriples.zipWithIndex if e._3 >= 1.0)
        assert(mask(i), s"sample $id dropped certain edge $i")
    }
  }

  test("edgeMask matches the liveEdge predicate") {
    val seed = Rng.sampleSeed(2L, 3L)
    val mask = GraphSampler.edgeMask(g, seed)
    val pred = GraphSampler.liveEdge(g, seed)
    assert((0 until g.m).forall(e => mask(e) == pred(e)))
  }

  test("uncertain edge inclusion frequency approximates its probability") {
    val idx58 = g.edgeTriples.indexWhere(t => t._3 == 0.5) // (v5, v8)
    val n = 20000
    val hits = (0L until n.toLong).count(id => GraphSampler.liveEdge(g, Rng.sampleSeed(3L, id))(idx58))
    val freq = hits.toDouble / n
    assert(math.abs(freq - 0.5) < 0.015, s"freq=$freq")
  }

  test("reachCount equals reachSet size") {
    for (id <- 0L until 20L) {
      val seed = Rng.sampleSeed(4L, id)
      assert(
        GraphSampler.reachCount(g, Array(ToyGraph.seed), seed) ==
          GraphSampler.reachSet(g, Array(ToyGraph.seed), seed).size)
    }
  }

  test("reach always contains the root") {
    for (id <- 0L until 20L) {
      val s = GraphSampler.reachSet(g, Array(ToyGraph.seed), Rng.sampleSeed(5L, id))
      assert(s.contains(ToyGraph.seed))
    }
  }

  test("toy graph: certain part is always reached") {
    def v(k: Int) = ToyGraph.v(k)
    for (id <- 0L until 30L) {
      val s = GraphSampler.reachSet(g, Array(ToyGraph.seed), Rng.sampleSeed(6L, id))
      assert(Set(v(1), v(2), v(3), v(4), v(5), v(6), v(9)).subsetOf(s))
    }
  }

  test("average reach count converges to the exact expected spread (Lemma 1)") {
    val n = 50000
    val sum = (0L until n.toLong).map(id => GraphSampler.reachCount(g, Array(ToyGraph.seed), Rng.sampleSeed(7L, id)).toLong).sum
    val est = sum.toDouble / n
    assert(math.abs(est - ToyGraph.expectedSpread) < 0.03, s"est=$est")
  }

  test("blocked vertices are never reached") {
    def v(k: Int) = ToyGraph.v(k)
    val blocked = new Array[Boolean](g.n)
    blocked(v(5)) = true
    for (id <- 0L until 30L) {
      val s = GraphSampler.reachSet(g, Array(ToyGraph.seed), Rng.sampleSeed(8L, id), blocked)
      assert(!s.contains(v(5)))
      // v5 dominates everything downstream of it
      assert(s == Set(v(1), v(2), v(4)))
    }
  }

  test("blocking the root yields an empty reach") {
    val blocked = new Array[Boolean](g.n)
    blocked(ToyGraph.seed) = true
    assert(GraphSampler.reachCount(g, Array(ToyGraph.seed), 1L, blocked) == 0)
  }

  test("multi-root reach unions the individual reaches") {
    val h = ProbGraph.fromEdges(5, Seq((0, 2, 1.0), (1, 3, 1.0), (3, 4, 1.0)))
    val s = GraphSampler.reachSet(h, Array(0, 1), 1L)
    assert(s == Set(0, 1, 2, 3, 4))
  }

  test("duplicate roots are counted once") {
    val h = ProbGraph.fromEdges(3, Seq((0, 1, 1.0)))
    assert(GraphSampler.reachCount(h, Array(0, 0), 1L) == 2)
  }

  test("same sampleSeed gives identical worlds regardless of blocker set (common random numbers)") {
    def v(k: Int) = ToyGraph.v(k)
    for (id <- 0L until 50L) {
      val seed = Rng.sampleSeed(9L, id)
      val free = GraphSampler.reachSet(g, Array(ToyGraph.seed), seed)
      val blocked = new Array[Boolean](g.n)
      blocked(v(9)) = true
      val withBlock = GraphSampler.reachSet(g, Array(ToyGraph.seed), seed, blocked)
      // the blocked world is the free world minus vertices only reachable via v9
      assert(withBlock.subsetOf(free - v(9)))
    }
  }

  test("reach kernel on the toy graph finds all 9 vertices over certain+uncertain edges") {
    assert(kernelReach(g, ToyGraph.seed)(everyEdge) == (0 until 9).toSet)
  }

  test("reach kernel stops at disconnected components") {
    val h = ProbGraph.fromEdges(5, Seq((0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)))
    assert(kernelReach(h, 0)(everyEdge) == Set(0, 1, 2))
  }

  test("reach kernel handles cycles") {
    val h = ProbGraph.fromEdges(3, Seq((0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)))
    assert(kernelReach(h, 0)(everyEdge) == Set(0, 1, 2))
  }

  test("reach kernel with multiple roots unions their reaches") {
    val h = ProbGraph.fromEdges(6, Seq((0, 2, 1.0), (1, 3, 1.0), (3, 4, 1.0)))
    assert(kernelReach(h, 0, 1)(everyEdge) == Set(0, 1, 2, 3, 4))
  }

  test("a root with no outgoing edges reaches only itself") {
    val h = ProbGraph.fromEdges(3, Seq((0, 1, 1.0)))
    assert(kernelReach(h, 2)(everyEdge) == Set(2))
  }

  test("reach kernel respects an edge predicate; support follows p > 0 edges") {
    def v(k: Int) = ToyGraph.v(k)
    // drop both edges into v8 — v8 and v7 become unreachable
    val reach = kernelReach(g, ToyGraph.seed)((e, _) => g.targets(e) != v(8))
    assert(reach == Set(v(1), v(2), v(3), v(4), v(5), v(6), v(9)))
    val h = ProbGraph.fromEdges(4, Seq((0, 1, 0.5), (1, 2, 0.0), (0, 3, 1.0)))
    assert(GraphSampler.support(h, Array(0)).toSeq == Seq(true, true, false, true))
  }

  test("reachSet on random certain graphs matches a fixpoint closure of the edges") {
    val rnd = new scala.util.Random(31)
    for (trial <- 1 to 5) {
      val n = 10 + rnd.nextInt(30)
      val edges = Seq.fill(3 * n)((rnd.nextInt(n), rnd.nextInt(n), 1.0)).filter(e => e._1 != e._2)
      val h = ProbGraph.fromEdges(n, edges.distinct)
      val root = rnd.nextInt(n)
      assert(GraphSampler.reachSet(h, Array(root), sampleSeed = 1L) == closure(h, Set(root), _ => true),
        s"trial=$trial root=$root")
    }
  }

  test("reachCount on a random sampled world matches a fixpoint closure of its live edges") {
    val rnd = new scala.util.Random(41)
    val n = 20
    val edges = Seq.fill(50)((rnd.nextInt(n), rnd.nextInt(n), 0.5)).filter(e => e._1 != e._2).distinct
    val h = ProbGraph.fromEdges(n, edges)
    val seed = Rng.sampleSeed(5L, 9L)
    val live = GraphSampler.liveEdge(h, seed)
    val free = closure(h, Set(0), live)
    assert(GraphSampler.reachSet(h, Array(0), seed) == free)
    assert(GraphSampler.reachCount(h, Array(0), seed) == free.size)
    for (cut <- 1 until n) {
      val blocked = Array.tabulate(n)(_ == cut)
      val expected = closure(h, Set(0), e => live(e) && h.targets(e) != cut)
      assert(GraphSampler.reachCount(h, Array(0), seed, blocked) == expected.size, s"cut=$cut")
    }
  }

  test("reach kernel matches DuckDB WITH RECURSIVE oracle on the toy graph") {
    import spark.implicits._
    Oracle.assertEquivalent(
      kernelReach(g, ToyGraph.seed)(everyEdge).toSeq.toDF("vertex"),
      recursiveReach(ToyGraph.seed),
      "edges" -> edgesDF(g, _ => true))
  }

  test("reachSet matches DuckDB recursive oracle on a sampled world with a blocked vertex") {
    import spark.implicits._
    val rnd = new scala.util.Random(37)
    val n = 25
    val edges = Seq.fill(60)((rnd.nextInt(n), rnd.nextInt(n), 0.5)).filter(e => e._1 != e._2).distinct
    val h = ProbGraph.fromEdges(n, edges)
    val seed = Rng.sampleSeed(5L, 9L)
    def reachWithout(cut: Int) = GraphSampler.reachSet(h, Array(0), seed, Array.tabulate(n)(_ == cut))
    // Block the reached vertex that cuts off the most, smallest id on ties.
    val free = GraphSampler.reachSet(h, Array(0), seed)
    val cut = (free - 0).toSeq.sorted.minBy(c => reachWithout(c).size)
    val blocked = Array.tabulate(n)(_ == cut)
    val reach = GraphSampler.reachSet(h, Array(0), seed, blocked)
    assert(reach.size < free.size - 1, "the blocked vertex should cut off more than itself")
    assert(GraphSampler.reachCount(h, Array(0), seed, blocked) == reach.size)
    Oracle.assertEquivalent(
      reach.toSeq.toDF("vertex"),
      recursiveReach(0, s"e.dst <> '$cut'"),
      "edges" -> edgesDF(h, GraphSampler.edgeMask(h, seed)))
  }
}
