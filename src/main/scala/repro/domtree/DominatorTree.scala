package repro.domtree

import repro.graph.ProbGraph

/** Dominator trees via the Lengauer–Tarjan algorithm [53] (the "simple"
  * eval/link variant with path compression, O(m log n)).
  *
  * The tree is computed for the subgraph of `g` induced by an edge predicate
  * (the live edges of one sampled world) restricted to the vertices
  * reachable from `root` — exactly what Algorithm 2 of the paper needs. All
  * internal state but the vertex → dfn map lives in DFS-number ("dfn")
  * space, so a [[Workspace]] makes a world cost its reach; [[Result]] exposes both
  * the compact dfn-space arrays (for the subtree-size scan) and an
  * original-id view (for tests).
  */
object DominatorTree {

  /** Dominator tree of one (sampled) graph.
    *
    * A result computed with a [[Workspace]] shares its arrays and stays
    * valid only until the next [[compute]] with that workspace; the arrays
    * may be longer than `count`, and entries from `count` on are scratch.
    *
    * @param count    number of vertices reachable from the root
    * @param vertexOf original vertex id of each dfn in `0 until count`
    * @param idomDfn  immediate dominator in dfn space; `idomDfn(0) == 0`
    */
  final class Result(
      val count: Int,
      val vertexOf: Array[Int],
      private val dfnOf: Array[Int],
      val idomDfn: Array[Int]) {

    /** Is original vertex `v` reachable from the root? */
    def reachable(v: Int): Boolean = dfnOf(v) >= 0

    /** Immediate dominator of original vertex `v`; the root maps to itself;
      * -1 if `v` is unreachable.
      */
    def idomOf(v: Int): Int = {
      val d = dfnOf(v)
      if (d < 0) -1 else vertexOf(idomDfn(d))
    }

    /** Size of the dominator-tree subtree rooted at each dfn (Theorem 6:
      * this equals σ→u(s, g), the number of vertices whose every path from
      * the root passes through u). The root's entry is `count`.
      */
    def subtreeSizes: Array[Int] = {
      val size = Array.fill(count)(1)
      // idom is always a DFS-tree ancestor, so idomDfn(w) < w and one
      // reverse scan accumulates children before parents.
      var w = count - 1
      while (w >= 1) { size(idomDfn(w)) += size(w); w -= 1 }
      size
    }

    /** Subtree size of original vertex `v` (0 if unreachable). */
    def subtreeSizeOf(v: Int): Int = {
      val sizes = subtreeSizes
      val d = dfnOf(v)
      if (d < 0) 0 else sizes(d)
    }
  }

  /** Scratch state of [[compute]] for graphs of `n` vertices, reused across
    * the sampled worlds of one task so that a world costs its reach, not `n`.
    * Only the vertex → dfn map has `n` entries; it is reset before each
    * world by walking the previous world's reached vertices. Every other
    * array is indexed by dfn or by live edge and grows on demand.
    */
  final class Workspace(n: Int) {
    private val dfn = Array.fill(n)(-1)
    private var reached = 0
    // Indexed by dfn.
    private var vertexOf = new Array[Int](16)
    private var parent = new Array[Int](16)
    private var nextEdge = new Array[Int](16)
    private var predOff = new Array[Int](17)
    private var semi, label, ancestor, dom, bucketHead, bucketNext, chain = new Array[Int](0)
    // Indexed by live edge, in the order the DFS finds them.
    private var liveFrom = new Array[Int](16)
    private var liveTo = new Array[Int](16)
    private var predSrc = new Array[Int](16)

    private[DominatorTree] def compute(g: ProbGraph, root: Int, keepEdge: Int => Boolean): Result = {
      require(g.n == n, s"workspace is for n=$n, graph has n=${g.n}")
      var i = 0
      while (i < reached) { dfn(vertexOf(i)) = -1; i += 1 }
      reached = 0
      val live = dfs(g, root, keepEdge)
      val cnt = reached
      buildPredecessors(cnt, live)
      lengauerTarjan(cnt)
      new Result(cnt, vertexOf, dfn, dom)
    }

    private def visit(v: Int, parentDfn: Int, g: ProbGraph): Int = {
      val d = reached
      if (d == vertexOf.length) {
        val c = 2 * d
        vertexOf = java.util.Arrays.copyOf(vertexOf, c)
        parent = java.util.Arrays.copyOf(parent, c)
        nextEdge = java.util.Arrays.copyOf(nextEdge, c)
      }
      dfn(v) = d; vertexOf(d) = v; parent(d) = parentDfn; nextEdge(d) = g.offsets(v)
      reached += 1
      d
    }

    /** Iterative DFS numbering over live edges; tests each out-edge of a
      * reached vertex exactly once and records the live ones in dfn space.
      * The DFS stack is the parent chain. Returns the live-edge count.
      */
    private def dfs(g: ProbGraph, root: Int, keepEdge: Int => Boolean): Int = {
      var live = 0
      var d = visit(root, 0, g)
      while (d >= 0) {
        var e = nextEdge(d)
        val end = g.offsets(vertexOf(d) + 1)
        var child = -1
        while (e < end && child < 0) {
          if (keepEdge(e)) {
            val v = g.targets(e)
            var w = dfn(v)
            if (w < 0) { w = visit(v, d, g); child = w }
            if (live == liveFrom.length) {
              liveFrom = java.util.Arrays.copyOf(liveFrom, 2 * live)
              liveTo = java.util.Arrays.copyOf(liveTo, 2 * live)
            }
            liveFrom(live) = d; liveTo(live) = w; live += 1
          }
          e += 1
        }
        nextEdge(d) = e
        d = if (child >= 0) child else if (d == 0) -1 else parent(d)
      }
      live
    }

    /** Predecessor lists in dfn space: CSR of the recorded live edges. */
    private def buildPredecessors(cnt: Int, live: Int): Unit = {
      if (predOff.length < cnt + 1) predOff = new Array[Int](vertexOf.length + 1)
      if (predSrc.length < live) predSrc = new Array[Int](liveFrom.length)
      java.util.Arrays.fill(predOff, 0, cnt + 1, 0)
      var k = 0
      while (k < live) { predOff(liveTo(k) + 1) += 1; k += 1 }
      var i = 0
      while (i < cnt) { predOff(i + 1) += predOff(i); i += 1 }
      // predOff(w + 1) is the end of w's slots: place edges back to front,
      // moving it down to w's start, then shift every offset down by one.
      k = live - 1
      while (k >= 0) {
        val w = liveTo(k) + 1
        predOff(w) -= 1
        predSrc(predOff(w)) = liveFrom(k)
        k -= 1
      }
      i = 0
      while (i < cnt) { predOff(i) = predOff(i + 1); i += 1 }
      predOff(cnt) = live
    }

    /** Steps 2-4 of Lengauer-Tarjan with path compression, in dfn space. */
    private def lengauerTarjan(cnt: Int): Unit = {
      if (semi.length < cnt) {
        val c = vertexOf.length
        semi = new Array[Int](c); label = new Array[Int](c); ancestor = new Array[Int](c)
        dom = new Array[Int](c); bucketHead = new Array[Int](c); bucketNext = new Array[Int](c)
        chain = new Array[Int](c)
      }
      var i = 0
      while (i < cnt) {
        semi(i) = i; label(i) = i; ancestor(i) = -1
        bucketHead(i) = -1; bucketNext(i) = -1
        i += 1
      }

      var w = cnt - 1
      while (w >= 1) {
        val p = parent(w)
        // Step 2: semidominator of w.
        var j = predOff(w)
        while (j < predOff(w + 1)) {
          val u = eval(predSrc(j))
          if (semi(u) < semi(w)) semi(w) = semi(u)
          j += 1
        }
        bucketNext(w) = bucketHead(semi(w)); bucketHead(semi(w)) = w
        ancestor(w) = p // LINK(parent(w), w)
        // Step 3: implicitly define idom for the bucket of parent(w).
        var v = bucketHead(p)
        bucketHead(p) = -1
        while (v >= 0) {
          val nx = bucketNext(v)
          val u = eval(v)
          dom(v) = if (semi(u) < semi(v)) u else p
          v = nx
        }
        w -= 1
      }
      // Step 4: explicit immediate dominators.
      dom(0) = 0
      w = 1
      while (w < cnt) {
        if (dom(w) != semi(w)) dom(w) = dom(dom(w))
        w += 1
      }
    }

    private def eval(v0: Int): Int =
      if (ancestor(v0) < 0) v0
      else {
        // COMPRESS(v0): collect the chain of vertices whose grandparent in
        // the link forest exists, then relabel top-down.
        var len = 0
        var x = v0
        while (ancestor(ancestor(x)) >= 0) { chain(len) = x; len += 1; x = ancestor(x) }
        while (len > 0) {
          len -= 1
          val y = chain(len)
          val a = ancestor(y)
          if (semi(label(a)) < semi(label(y))) label(y) = label(a)
          ancestor(y) = ancestor(a)
        }
        label(v0)
      }
  }

  /** Compute the dominator tree of the subgraph of `g` whose edges satisfy
    * `keepEdge`, restricted to vertices reachable from `root`. The result
    * owns its arrays.
    */
  def compute(g: ProbGraph, root: Int, keepEdge: Int => Boolean): Result =
    new Workspace(g.n).compute(g, root, keepEdge)

  /** As [[compute]], with the scratch state of `ws` (sized for `g.n`); the
    * result is valid until the next call with `ws`.
    */
  def compute(g: ProbGraph, root: Int, keepEdge: Int => Boolean, ws: Workspace): Result =
    ws.compute(g, root, keepEdge)

  /** Dominator tree of the whole graph (every edge live). */
  def computeAll(g: ProbGraph, root: Int): Result = compute(g, root, _ => true)

  /** O(n·m) brute-force immediate dominators, for verification: `u`
    * dominates `v` iff `v` is unreachable from `root` once `u` is removed;
    * the immediate dominator is the deepest proper dominator.
    * Returns idom per original vertex id (root -> root, unreachable -> -1).
    */
  def bruteForceIdoms(g: ProbGraph, root: Int, keepEdge: Int => Boolean = _ => true): Array[Int] = {
    def reach(skip: Int): Array[Boolean] = {
      val vis = new Array[Boolean](g.n)
      if (root == skip) return vis
      val stack = new java.util.ArrayDeque[Integer]()
      vis(root) = true; stack.push(root)
      while (!stack.isEmpty) {
        val u = stack.pop().intValue()
        g.foreachOut(u) { (e, v, _) =>
          if (keepEdge(e) && v != skip && !vis(v)) { vis(v) = true; stack.push(v) }
        }
      }
      vis
    }
    val base = reach(-1)
    val doms = Array.fill(g.n)(Set.empty[Int])
    for (v <- 0 until g.n if base(v)) doms(v) = Set(v)
    for (u <- 0 until g.n if base(u)) {
      val without = reach(u)
      for (v <- 0 until g.n if base(v) && !without(v)) doms(v) += u
    }
    val idom = Array.fill(g.n)(-1)
    idom(root) = root
    for (v <- 0 until g.n if base(v) && v != root) {
      val proper = doms(v) - v
      idom(v) = proper.maxBy(d => doms(d).size) // dominators form a chain
    }
    idom
  }
}
