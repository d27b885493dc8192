package perfbench

import org.apache.spark.SparkContext
import org.apache.spark.perfbench.ListenerBus
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession
import repro.domtree.DominatorTree
import repro.graph.{ProbGraph, SeedReduction}
import repro.imin.Blocking
import repro.sampling.{DeltaEstimator, GraphSampler, TriggeringModel}
import repro.spread.MonteCarloSpread
import repro.util.Rng
import scala.collection.mutable

/** Records Spark jobs, tasks and broadcast pieces while attached. */
final class JobListener extends SparkListener {
  var jobs = 0
  var tasks = 0
  var taskRunMs = 0L
  var taskDeserMs = 0L
  var resultBytes = 0L
  var broadcastBytes = 0L
  var jobWallMs = 0L
  var schedWaitMs = 0L
  private val jobStart = mutable.Map.empty[Int, Long]
  private val jobOfStage = mutable.Map.empty[Int, Int]
  private val longestTask = mutable.Map.empty[Int, Long]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    jobs += 1
    jobStart(e.jobId) = e.time
    e.stageIds.foreach(jobOfStage(_) = e.jobId)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    tasks += 1
    if (e.taskMetrics != null) {
      taskRunMs += e.taskMetrics.executorRunTime
      taskDeserMs += e.taskMetrics.executorDeserializeTime
      resultBytes += e.taskMetrics.resultSize
    }
    jobOfStage.get(e.stageId).foreach { j =>
      longestTask(j) = math.max(longestTask.getOrElse(j, 0L), e.taskInfo.duration)
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobStart.remove(e.jobId).foreach { t0 =>
      val wall = e.time - t0
      jobWallMs += wall
      schedWaitMs += wall - longestTask.getOrElse(e.jobId, 0L)
    }
  }

  override def onBlockUpdated(e: SparkListenerBlockUpdated): Unit = synchronized {
    val info = e.blockUpdatedInfo
    if (info.blockId.isBroadcast && info.blockId.name.contains("_piece") && info.storageLevel.isValid)
      broadcastBytes += info.memSize + info.diskSize
  }
}

object JobListener {

  /** Run `body` with a fresh listener attached; returns both once every
    * event the body caused has been delivered.
    */
  def during[T](sc: SparkContext)(body: => T): (T, JobListener) = {
    val l = new JobListener
    sc.addSparkListener(l)
    try {
      val r = body
      ListenerBus.drain(sc)
      (r, l)
    } finally sc.removeSparkListener(l)
  }
}

/** Wraps a triggering model's live-edge predicate to count edge tests. */
final class CountingModel(inner: TriggeringModel) extends TriggeringModel {
  var worlds = 0L
  var tests = 0L
  var kept = 0L

  def liveEdge(g: ProbGraph, sampleSeed: Long): Int => Boolean = {
    worlds += 1
    val live = inner.liveEdge(g, sampleSeed)
    (e: Int) => {
      tests += 1
      val k = live(e)
      if (k) kept += 1
      k
    }
  }
}

/** Times the layer calls of one AG solve, made from the benchmark.
  *
  * Each round blocks vertices (`ProbGraph.blockVertices`) and estimates Δ
  * on the default Spark path (`DeltaEstimator.estimate`). The same inputs
  * then go through `estimateLocal` as a single-threaded baseline; that call
  * is not part of the solve, and its Δ must equal the Spark one exactly.
  */
final class RoundTracer(spark: SparkSession, theta: Int) {
  var seedReduceS = 0.0
  val blockS = mutable.ArrayBuffer.empty[Double]
  val estimateS = mutable.ArrayBuffer.empty[Double]
  val localS = mutable.ArrayBuffer.empty[Double]
  val gaps = mutable.ArrayBuffer.empty[Double]
  var rounds = 0
  var edgesRebuilt = 0L
  var worlds = 0L
  var localMismatches = 0

  def reduce(g: ProbGraph, seeds: Set[Int]): (SeedReduction.Reduced, Int => Boolean) = {
    val (r, s) = Stats.timed(Blocking.reduced(g, seeds))
    seedReduceS += s
    r
  }

  def deltas(rg: ProbGraph, root: Int, blocked: Array[Boolean], roundSeed: Long): Array[Double] = {
    val (current, tb) = Stats.timed(rg.blockVertices(blocked))
    blockS += tb
    rounds += 1
    edgesRebuilt += current.m
    val (delta, te) = Stats.timed(DeltaEstimator.estimate(spark, current, root, theta, roundSeed))
    estimateS += te
    worlds += theta
    val (local, tl) = Stats.timed(DeltaEstimator.estimateLocal(current, root, theta, roundSeed))
    localS += tl
    if (!java.util.Arrays.equals(delta, local)) localMismatches += 1
    delta
  }

  /** `Blocking.argmaxDelta`, also recording the top-minus-runner-up gap. */
  def pick(delta: Array[Double], allowed: Int => Boolean): Int = {
    val x = Blocking.argmaxDelta(delta, allowed)
    if (x >= 0) {
      val y = Blocking.argmaxDelta(delta, v => v != x && allowed(v))
      if (y >= 0) gaps += delta(x) - delta(y)
    }
    x
  }

  /** Seconds spent inside layer calls that belong to the solve. */
  def layerS: Double = seedReduceS + blockS.sum + estimateS.sum
}

/** AG driven round by round from the benchmark, through the same public
  * calls `AdvancedGreedy.run` makes, so each call can be timed. The result
  * is compared with the real solve's; a difference is reported, not failed,
  * because it only means the algorithm's loop has moved on from this copy.
  */
object Replica {

  def advancedGreedy(t: RoundTracer, g: ProbGraph, seeds: Set[Int], b: Int, masterSeed: Long): Seq[Int] = {
    val (red, notSeed) = t.reduce(g, seeds)
    val rg = red.graph
    val blocked = new Array[Boolean](rg.n)
    val order = mutable.ArrayBuffer.empty[Int]
    var i = 0
    var exhausted = false
    while (i < b && !exhausted) {
      val delta = t.deltas(rg, red.superSeed, blocked, Rng.splitmix64(masterSeed ^ (i + 1).toLong))
      val x = t.pick(delta, v => !blocked(v) && notSeed(v))
      if (x < 0 || delta(x) <= 0.0) exhausted = true
      else { blocked(x) = true; order += x }
      i += 1
    }
    order.toSeq
  }
}

/** Per-layer unit costs measured on a workload's instance, at round 0. */
object Probes {

  /** Median wall seconds of `reps` calls. */
  def medianS(reps: Int)(body: => Any): Double =
    Stats.median((1 to reps).map(_ => Stats.timed(body)._2))

  /** Live-edge tests and kept edges per world, through a counting wrapper
    * around the IC predicate, on the single-threaded estimator path.
    */
  def edgeTests(rg: ProbGraph, root: Int, worlds: Int, seed: Long): (Double, Double) = {
    val m = new CountingModel(TriggeringModel.IndependentCascade)
    DeltaEstimator.estimateLocal(rg, root, worlds, seed, m)
    (m.tests.toDouble / m.worlds, if (m.tests == 0) 0.0 else m.kept.toDouble / m.tests)
  }

  /** `DominatorTree.compute` over `worlds` sampled worlds:
    * (µs per world, KB allocated per world, reached vertices per world).
    */
  def domtree(rg: ProbGraph, root: Int, worlds: Int, seed: Long): (Double, Double, Double) = {
    var reached = 0L
    val a0 = Alloc.current()
    val t0 = System.nanoTime()
    var i = 0L
    while (i < worlds) {
      val live = TriggeringModel.IndependentCascade.liveEdge(rg, Rng.sampleSeed(seed, i))
      reached += DominatorTree.compute(rg, root, live).count
      i += 1
    }
    val ns = (System.nanoTime() - t0).toDouble
    val bytes = (Alloc.current() - a0).toDouble
    (ns / 1e3 / worlds, bytes / 1e3 / worlds, reached.toDouble / worlds)
  }

  /** `GraphSampler.reachCount` over `calls` worlds with nothing blocked:
    * (µs per call, KB allocated per call, reached vertices per call).
    */
  def reach(rg: ProbGraph, root: Int, calls: Int, seed: Long): (Double, Double, Double) = {
    val roots = Array(root)
    val none = new Array[Boolean](rg.n)
    var reached = 0L
    val a0 = Alloc.current()
    val t0 = System.nanoTime()
    var i = 0L
    while (i < calls) {
      reached += GraphSampler.reachCount(rg, roots, Rng.sampleSeed(seed, i), none)
      i += 1
    }
    val ns = (System.nanoTime() - t0).toDouble
    val bytes = (Alloc.current() - a0).toDouble
    (ns / 1e3 / calls, bytes / 1e3 / calls, reached.toDouble / calls)
  }

  /** Expected spread of `blockers` on the fixed evaluation pool. */
  def spread(inst: Instance, blockers: Seq[Int], worlds: Int): Double =
    MonteCarloSpread.spreadLocal(inst.g, inst.roots, worlds, Workloads.EvalSeed,
      Blocking.maskOf(inst.g.n, blockers))
}
