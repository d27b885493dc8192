package repro.domtree

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{ProbGraph, ToyGraph}

class DominatorTreeSpec extends AnyFunSuite {

  private def idomMap(g: ProbGraph, root: Int, keep: Int => Boolean = _ => true): Map[Int, Int] = {
    val r = DominatorTree.compute(g, root, keep)
    (0 until g.n).flatMap(v => if (r.reachable(v)) Some(v -> r.idomOf(v)) else None).toMap
  }

  test("single path: each vertex is dominated by its predecessor") {
    val g = ProbGraph.fromEdges(4, Seq((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)))
    assert(idomMap(g, 0) == Map(0 -> 0, 1 -> 0, 2 -> 1, 3 -> 2))
  }

  test("diamond: join point is dominated by the fork") {
    val g = ProbGraph.fromEdges(4, Seq((0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)))
    assert(idomMap(g, 0) == Map(0 -> 0, 1 -> 0, 2 -> 0, 3 -> 0))
  }

  test("nested diamonds") {
    // 0 -> {1,2} -> 3 -> {4,5} -> 6
    val g = ProbGraph.fromEdges(
      7,
      Seq((0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0),
        (3, 4, 1.0), (3, 5, 1.0), (4, 6, 1.0), (5, 6, 1.0)))
    val m = idomMap(g, 0)
    assert(m(3) == 0)
    assert(m(6) == 3)
    assert(m(4) == 3 && m(5) == 3)
  }

  test("cycle back to the root does not break domination") {
    val g = ProbGraph.fromEdges(3, Seq((0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)))
    assert(idomMap(g, 0) == Map(0 -> 0, 1 -> 0, 2 -> 1))
  }

  test("unreachable vertices are reported unreachable") {
    val g = ProbGraph.fromEdges(4, Seq((0, 1, 1.0), (2, 3, 1.0)))
    val r = DominatorTree.compute(g, 0, _ => true)
    assert(r.count == 2)
    assert(!r.reachable(2) && !r.reachable(3))
    assert(r.idomOf(2) == -1)
    assert(r.subtreeSizeOf(3) == 0)
  }

  test("classic Lengauer-Tarjan paper-style graph with cross and back edges") {
    // A graph where semidominator != parent for some vertex.
    val g = ProbGraph.fromEdges(
      6,
      Seq((0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0), (3, 4, 1.0),
        (4, 5, 1.0), (5, 3, 1.0), (2, 4, 1.0)))
    val lt = idomMap(g, 0)
    val bf = DominatorTree.bruteForceIdoms(g, 0)
    for ((v, d) <- lt) assert(bf(v) == d, s"vertex $v")
  }

  test("toy graph full dominator tree: v5 dominates v3,v6,v8,v9 and v8 dominates v7") {
    val m = idomMap(ToyGraph.graph, ToyGraph.seed)
    def v(k: Int) = ToyGraph.v(k)
    assert(m(v(2)) == v(1))
    assert(m(v(4)) == v(1))
    assert(m(v(5)) == v(1)) // reachable via both v2 and v4
    assert(m(v(3)) == v(5))
    assert(m(v(6)) == v(5))
    assert(m(v(9)) == v(5))
    assert(m(v(8)) == v(5)) // reachable via v5 directly and via v9
    assert(m(v(7)) == v(8))
  }

  test("Figure 4a: dominator tree of sampled world with both (v5,v8) and (v9,v8)") {
    // live edges: all certain edges + (v5,v8) + (v9,v8); (v8,v7) dropped
    val g = ToyGraph.graph
    def v(k: Int) = ToyGraph.v(k)
    val keep = (e: Int) => {
      val (u, w, _) = g.edgeTriples(e)
      (u, w) != (v(8), v(7))
    }
    val m = idomMap(g, ToyGraph.seed, keep)
    assert(m(v(8)) == v(5))
    assert(!m.contains(v(7)))
    val r = DominatorTree.compute(g, ToyGraph.seed, keep)
    assert(r.subtreeSizeOf(v(5)) == 5) // v5, v3, v6, v9, v8 (Example 2: 5.1 with the 0.1-prob v7)
  }

  test("Figure 4c: world with only (v9,v8) — v8 dominated by v9") {
    val g = ToyGraph.graph
    def v(k: Int) = ToyGraph.v(k)
    val keep = (e: Int) => {
      val (u, w, _) = g.edgeTriples(e)
      (u, w) != (v(8), v(7)) && (u, w) != (v(5), v(8))
    }
    val m = idomMap(g, ToyGraph.seed, keep)
    assert(m(v(8)) == v(9))
    val r = DominatorTree.compute(g, ToyGraph.seed, keep)
    assert(r.subtreeSizeOf(v(9)) == 2) // v9 and v8
  }

  test("Figure 4d: world with neither edge into v8 — subtree of v5 is 4") {
    val g = ToyGraph.graph
    def v(k: Int) = ToyGraph.v(k)
    val keep = (e: Int) => {
      val (u, w, _) = g.edgeTriples(e)
      (u, w) != (v(8), v(7)) && (u, w) != (v(5), v(8)) && (u, w) != (v(9), v(8))
    }
    val r = DominatorTree.compute(g, ToyGraph.seed, keep)
    assert(r.count == 7)
    assert(r.subtreeSizeOf(v(5)) == 4) // v5, v3, v6, v9 (Example 2)
    assert(!r.reachable(v(8)) && !r.reachable(v(7)))
  }

  test("subtree sizes sum correctly: root subtree equals reachable count") {
    val g = ToyGraph.graph
    val r = DominatorTree.compute(g, ToyGraph.seed, _ => true)
    assert(r.subtreeSizeOf(ToyGraph.seed) == r.count)
  }

  test("every non-root reachable vertex has a reachable immediate dominator") {
    val g = ToyGraph.graph
    val r = DominatorTree.compute(g, ToyGraph.seed, _ => true)
    for (v <- 0 until g.n if r.reachable(v) && v != ToyGraph.seed) {
      assert(r.reachable(r.idomOf(v)))
      assert(r.idomOf(v) != v)
    }
  }

  test("LT matches brute force on 60 random digraphs") {
    val rnd = new scala.util.Random(99)
    for (trial <- 1 to 60) {
      val n = 3 + rnd.nextInt(25)
      val mEdges = rnd.nextInt(4 * n)
      val edges = Seq.fill(mEdges)((rnd.nextInt(n), rnd.nextInt(n), 1.0)).filter(e => e._1 != e._2)
      val g = ProbGraph.fromEdges(n, edges)
      val root = rnd.nextInt(n)
      val lt = DominatorTree.compute(g, root, _ => true)
      val bf = DominatorTree.bruteForceIdoms(g, root)
      for (v <- 0 until n) {
        val ltIdom = if (lt.reachable(v)) lt.idomOf(v) else -1
        assert(ltIdom == bf(v), s"trial=$trial root=$root vertex=$v edges=${g.edgeTriples}")
      }
    }
  }

  test("LT matches brute force on random subgraphs (sampled-edge predicate)") {
    // Each world also masks a random blocked vertex set, and each trial
    // reuses one workspace across its worlds, so stale scratch state shows.
    val rnd = new scala.util.Random(123)
    for (trial <- 1 to 30) {
      val n = 4 + rnd.nextInt(15)
      val edges = Seq.fill(3 * n)((rnd.nextInt(n), rnd.nextInt(n), 1.0)).filter(e => e._1 != e._2)
      val g = ProbGraph.fromEdges(n, edges)
      val ws = new DominatorTree.Workspace(n)
      for (world <- 1 to 4) {
        val keepMask = Array.fill(g.m)(rnd.nextBoolean())
        val blocked = Array.tabulate(n)(v => v != 0 && rnd.nextInt(5) == 0)
        val keep = (e: Int) => !blocked(g.targets(e)) && keepMask(e)
        val lt = DominatorTree.compute(g, 0, keep, ws)
        val bf = DominatorTree.bruteForceIdoms(g, 0, keep)
        for (v <- 0 until n) {
          val ltIdom = if (lt.reachable(v)) lt.idomOf(v) else -1
          assert(ltIdom == bf(v), s"trial=$trial world=$world vertex=$v")
        }
      }
    }
  }

  test("subtree size equals count of vertices whose removal-of-u disconnects them (Theorem 6)") {
    val rnd = new scala.util.Random(7)
    for (_ <- 1 to 20) {
      val n = 4 + rnd.nextInt(12)
      val edges = Seq.fill(3 * n)((rnd.nextInt(n), rnd.nextInt(n), 1.0)).filter(e => e._1 != e._2)
      val g = ProbGraph.fromEdges(n, edges)
      val root = 0
      val r = DominatorTree.compute(g, root, _ => true)
      // direct sigma->u: reachable before minus reachable after removing u
      def reach(skip: Int): Set[Int] = {
        var vis = Set.empty[Int]
        def dfs(u: Int): Unit = if (!vis(u) && u != skip) {
          vis += u; g.outNeighbors(u).foreach(dfs)
        }
        if (root != skip) dfs(root)
        vis
      }
      val full = reach(-1)
      for (u <- 0 until n if r.reachable(u) && u != root) {
        val sigma = full.size - reach(u).size
        assert(r.subtreeSizeOf(u) == sigma, s"u=$u")
      }
    }
  }

  test("computeAll is compute with the constant-true predicate") {
    val g = ToyGraph.graph
    val a = DominatorTree.computeAll(g, ToyGraph.seed)
    val b = DominatorTree.compute(g, ToyGraph.seed, _ => true)
    assert(a.count == b.count)
    assert((0 until g.n).forall(v => a.idomOf(v) == b.idomOf(v)))
  }
}
