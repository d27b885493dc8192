package perfbench

import org.apache.spark.sql.SparkSession
import repro.graph.SeedReduction
import repro.sampling.DeltaEstimator
import scala.collection.immutable.ListMap
import scala.collection.mutable
import scala.util.control.NonFatal

/** Counts solves and checks every returned blocker order. */
final class Checker(w: Workload, inst: Instance) {
  var attempted = 0
  var failed = 0
  val problems = mutable.ArrayBuffer.empty[String]
  private var first: Option[Seq[Int]] = None

  /** The order of the first valid solve. */
  def reference: Option[Seq[Int]] = first

  def fail(msg: String): Unit = {
    failed += 1
    if (problems.size < 20) problems += msg
  }

  /** Problem with `order` (empty if none): at most b distinct in-range
    * non-seed vertices, in the same order as the first solve.
    */
  def problem(order: Seq[Int]): String =
    if (order.size > w.budget) s"${order.size} blockers for budget ${w.budget}"
    else if (order.distinct.size != order.size) s"repeated blocker in $order"
    else if (order.exists(v => v < 0 || v >= inst.g.n)) s"blocker out of range in $order"
    else if (order.exists(inst.seeds.contains)) s"seed blocked in $order"
    else if (first.exists(_ != order)) s"order $order differs from first solve ${first.get}"
    else ""

  /** Run one solve; its result if it returned and passed the checks. */
  def attempt[T](body: => (Seq[Int], T)): Option[(Seq[Int], T)] = {
    attempted += 1
    try {
      val r = body
      val p = problem(r._1)
      if (p.nonEmpty) { fail(p); None }
      else { if (first.isEmpty) first = Some(r._1); Some(r) }
    } catch { case NonFatal(e) => fail(e.toString); None }
  }

  /** Every spread must count at least the seeds themselves. */
  def checkSpread(s: Double): Unit =
    if (!(s >= inst.seeds.size && s <= inst.g.n)) fail(s"spread $s outside [${inst.seeds.size}, ${inst.g.n}]")
}

/** One benchmark run: `--workload W --seed N --seconds S --trace 0|1
  * --cores C [--tiny]`. Prints an `info` line, then the result line.
  */
object Main {

  final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean, cores: Int, tiny: Boolean)

  def parse(args: Array[String]): Opts = {
    val kv = args.sliding(2, 1).collect { case Array(k, v) if k.startsWith("--") => k -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing $k"))
    Opts(need("--workload"), need("--seed").toLong, need("--seconds").toDouble,
      need("--trace") == "1", need("--cores").toInt, args.contains("--tiny"))
  }

  private def startSpark(cores: Int): SparkSession = {
    val s = SparkSession.builder.master(s"local[$cores]").appName("perfbench").getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  def main(args: Array[String]): Unit = {
    val o = parse(args)
    val w = Workloads.byName(o.workload, o.tiny)

    // Set-up: Spark session start, graph, propagation model, seed draw.
    // Repeated in untraced runs so that setup_s is a median.
    var spark: SparkSession = null
    var inst: Instance = null
    val setupS = (1 to (if (o.trace) 1 else w.setups)).map { _ =>
      if (spark != null) { spark.stop(); System.gc() }
      val ((s, i), secs) = Stats.timed((startSpark(o.cores), w.instance()))
      spark = s; inst = i
      secs
    }

    try {
      val chk = new Checker(w, inst)
      val run = new Run(spark, w, inst, o, chk)
      val info = mutable.LinkedHashMap[String, Any](
        "workload" -> w.name, "algorithm" -> w.algo.name, "seed" -> o.seed, "tiny" -> o.tiny,
        "master" -> spark.sparkContext.master,
        "spark_default_parallelism" -> spark.sparkContext.defaultParallelism,
        "java_version" -> System.getProperty("java.version"),
        "max_heap_mb" -> Runtime.getRuntime.maxMemory / (1L << 20),
        "n" -> inst.g.n, "m" -> inst.g.m, "seeds" -> inst.roots.toSeq,
        "budget" -> w.budget, "samples" -> w.samples, "warmups" -> w.warmups,
        "setup_s" -> setupS)
      val metrics = if (o.trace) run.traced(info) else run.untraced(setupS, info)
      info("problems") = chk.problems.toSeq
      println(Json.obj(Seq("info" -> ListMap(info.toSeq: _*))))
      println(Json.obj(Seq(
        "correct" -> (chk.failed == 0),
        "attempted" -> chk.attempted,
        "failed" -> chk.failed,
        "metrics" -> ListMap(metrics.map { case (k, (v, unit)) => k -> ListMap("value" -> v, "unit" -> unit) }: _*))))
    } finally spark.stop()
  }
}

/** The measurements of one run. Metric values come with their units. */
final class Run(spark: SparkSession, w: Workload, inst: Instance, o: Main.Opts, chk: Checker) {
  type Metrics = Seq[(String, (Double, String))]

  /** Warm-ups, then timed solves for `--seconds` (at least `minSolves`):
    * wall seconds and MB allocated across all threads, per timed solve.
    */
  private def timedSolves(): Seq[(Double, Double)] = {
    def one() = chk.attempt {
      val a0 = Alloc.snapshot()
      val (order, secs) = Stats.timed(w.solve(spark, inst, o.seed))
      (order, (secs, Alloc.since(a0) / 1e6))
    }
    (1 to w.warmups).foreach(_ => one())
    val out = mutable.ArrayBuffer.empty[(Double, Double)]
    val t0 = System.nanoTime()
    var tries = 0
    while (tries < w.minSolves || (System.nanoTime() - t0) / 1e9 < o.seconds) {
      one().foreach(r => out += r._2)
      tries += 1
    }
    out.toSeq
  }

  private def needReference(): Seq[Int] =
    chk.reference.getOrElse(sys.error(s"no valid solve: ${chk.problems.mkString("; ")}"))

  def untraced(setupS: Seq[Double], info: mutable.Map[String, Any]): Metrics = {
    val solves = timedSolves()
    val blockers = needReference()
    val spread = Probes.spread(inst, blockers, w.evalWorlds)
    chk.checkSpread(spread)
    info ++= Seq("timed_solves" -> solves.size, "solve_s" -> solves.map(_._1),
      "alloc_mb" -> solves.map(_._2), "blockers" -> blockers)
    Seq(
      "setup_s" -> (Stats.median(setupS), "s"),
      "solve_s" -> (Stats.median(solves.map(_._1)), "s"),
      "alloc_mb" -> (Stats.median(solves.map(_._2)), "MB"),
      "spread" -> (spread, "vertices"))
  }

  def traced(info: mutable.Map[String, Any]): Metrics = {
    val untracedS = Stats.median(timedSolves().map(_._1))
    val blockers = needReference()
    val sc = spark.sparkContext
    val red = SeedReduction.reduce(inst.g, inst.seeds)
    val rg = red.graph
    val root = red.superSeed
    val probeSeed = o.seed ^ 0x7a3dL

    // The traced solve, with the job listener attached.
    val tracer = new RoundTracer(spark, w.samples)
    val (solveS, layerS, listener, replicaMatch) = w.algo match {
      case Algo.BG =>
        // Not replicable from outside: the real solve, split into seed
        // reduction (timed on the same input) and its Spark jobs.
        tracer.seedReduceS = Probes.medianS(3)(SeedReduction.reduce(inst.g, inst.seeds))
        val ((order, secs), l) = JobListener.during(sc)(Stats.timed(w.solve(spark, inst, o.seed)))
        chk.attempt((order, ()))
        (secs, tracer.seedReduceS + l.jobWallMs / 1e3, l, order == blockers)
      case Algo.AG =>
        val ((order, secs), l) = JobListener.during(sc)(Stats.timed(
          Replica.advancedGreedy(tracer, inst.g, inst.seeds, w.budget, o.seed)))
        chk.attempted += 1
        if (tracer.localMismatches > 0)
          chk.fail(s"estimateLocal differed from estimate in ${tracer.localMismatches} rounds")
        (secs - tracer.localS.sum, tracer.layerS, l, order == blockers)
    }

    // Unit costs at round 0 for the layers the traced solve does not call.
    if (tracer.blockS.isEmpty) {
      tracer.blockS += Probes.medianS(3)(rg.blockVertices(new Array[Boolean](rg.n)))
      val seed0 = o.seed ^ 0x1L
      tracer.estimateS += Probes.medianS(3)(DeltaEstimator.estimate(spark, rg, root, w.samples, seed0))
      tracer.localS += Probes.medianS(3)(DeltaEstimator.estimateLocal(rg, root, w.samples, seed0))
      val delta = DeltaEstimator.estimate(spark, rg, root, w.samples, seed0)
      if (!java.util.Arrays.equals(delta, DeltaEstimator.estimateLocal(rg, root, w.samples, seed0)))
        chk.fail("estimateLocal differed from estimate at round 0")
      tracer.pick(delta, v => v != root && !inst.seeds.contains(v))
    }
    val fixedS = Probes.medianS(5)(DeltaEstimator.estimate(spark, rg, root, 1, probeSeed))
    val (testsPerWorld, keepRatio) = Probes.edgeTests(rg, root, w.samples, probeSeed)
    val (domUs, domKb, domReached) = Probes.domtree(rg, root, w.samples, probeSeed)
    val (reachUs, reachKb, reachReached) = Probes.reach(rg, root, w.samples, probeSeed)
    val evalS = Probes.medianS(3)(Probes.spread(inst, blockers, w.evalWorlds))

    info ++= Seq("untraced_median_s" -> untracedS, "traced_solve_s" -> solveS,
      "replica_matches_solve" -> replicaMatch, "rounds_block_s" -> tracer.blockS.toSeq,
      "rounds_estimate_s" -> tracer.estimateS.toSeq, "rounds_delta_gap" -> tracer.gaps.toSeq)
    Seq(
      "graph.seed_reduce_s" -> (tracer.seedReduceS, "s"),
      "graph.block_vertices_s" -> (Stats.median(tracer.blockS.toSeq), "s"),
      "graph.block_vertices_calls" -> (tracer.rounds.toDouble, "count"),
      "graph.edges_rebuilt" -> (tracer.edgesRebuilt.toDouble, "count"),
      "domtree.compute_us_per_world" -> (domUs, "us"),
      "domtree.alloc_kb_per_world" -> (domKb, "KB"),
      "domtree.reached_per_world" -> (domReached, "vertices"),
      "domtree.ns_per_reached" -> (domUs * 1e3 / domReached, "ns"),
      "sampling.worlds" -> (tracer.worlds.toDouble, "count"),
      "sampling.estimate_s" -> (Stats.median(tracer.estimateS.toSeq), "s"),
      "sampling.estimate_local_s" -> (Stats.median(tracer.localS.toSeq), "s"),
      "sampling.edge_tests_per_world" -> (testsPerWorld, "count"),
      "sampling.edge_keep_ratio" -> (keepRatio, "ratio"),
      "spark.jobs" -> (listener.jobs.toDouble, "count"),
      "spark.tasks" -> (listener.tasks.toDouble, "count"),
      "spark.task_run_s" -> (listener.taskRunMs / 1e3, "s"),
      "spark.task_deser_s" -> (listener.taskDeserMs / 1e3, "s"),
      "spark.task_result_mb" -> (listener.resultBytes / 1e6, "MB"),
      "spark.sched_wait_s" -> (listener.schedWaitMs / 1e3, "s"),
      "spark.broadcast_mb" -> (listener.broadcastBytes / 1e6, "MB"),
      "spark.fixed_overhead_s" -> (fixedS, "s"),
      "spread.reach_us_per_call" -> (reachUs, "us"),
      "spread.alloc_kb_per_call" -> (reachKb, "KB"),
      "spread.reached_per_call" -> (reachReached, "vertices"),
      "spread.eval_s" -> (evalS, "s"),
      "imin.delta_gap" -> (Stats.mean(tracer.gaps.toSeq), "vertices"),
      "trace.overhead_s" -> (solveS - untracedS, "s"),
      "trace.unaccounted_s" -> (solveS - layerS, "s"),
      "trace.replica_match" -> (if (replicaMatch) 1.0 else 0.0, "count"))
  }
}
