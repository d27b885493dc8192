package repro.util

import java.util.concurrent.ConcurrentLinkedQueue
import org.apache.spark.scheduler.{SparkListener, SparkListenerBlockUpdated, SparkListenerJobStart}
import org.apache.spark.storage.BroadcastBlockId
import org.scalacheck.{Gen, Prop, Test}
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.{Seconds, Span}
import repro.SparkSpec
import repro.graph.ProbGraph
import repro.imin.{BaselineGreedy, ExactBlocker}
import repro.sampling.{DeltaEstimator, GraphSampler, TriggeringModel}
import repro.spread.MonteCarloSpread
import scala.jdk.CollectionConverters._

class FanOutSpec extends SparkSpec {

  /** Jobs (by job group) and broadcast block updates (broadcast id, still
    * stored) in the order the listener bus delivered them.
    */
  private final class Events extends SparkListener {
    val jobs = new ConcurrentLinkedQueue[String]
    val broadcasts = new ConcurrentLinkedQueue[(Long, Boolean)]
    override def onJobStart(e: SparkListenerJobStart): Unit =
      jobs.add(String.valueOf(e.properties.getProperty("spark.jobGroup.id")))
    override def onBlockUpdated(e: SparkListenerBlockUpdated): Unit = e.blockUpdatedInfo.blockId match {
      case BroadcastBlockId(id, _) => broadcasts.add(id -> e.blockUpdatedInfo.storageLevel.isValid)
      case _ =>
    }
  }

  /** Run `body` with a fresh listener; return `body`'s result and every
    * job it started (the bus is drained by a marker job run afterwards).
    */
  private def listen[T](body: Events => T): (T, Seq[String]) = {
    val ev = new Events
    val sc = spark.sparkContext
    sc.addSparkListener(ev)
    try {
      val out = body(ev)
      sc.setJobGroup("marker", "drains the listener bus")
      try spark.range(1).count()
      finally sc.clearJobGroup()
      eventually(timeout(Span(30, Seconds)))(assert(ev.jobs.contains("marker")))
      (out, ev.jobs.asScala.toSeq.takeWhile(_ != "marker"))
    } finally sc.removeSparkListener(ev)
  }

  /** Id the next broadcast of this context will get. */
  private def nextBroadcastId(): Long = {
    val probe = spark.sparkContext.broadcast(0)
    probe.destroy()
    probe.id + 1
  }

  test("a driver reduce counts ids in a Long past Int.MaxValue") {
    val count = Int.MaxValue + 2L
    assert(FanOut.local(0).reduce(count)((_, ids) => ids.take(3).toList)(_ ++ _) == List(0L, 1L, 2L))
  }

  test("an id promised by hasNext is handed out after the driver's time is up") {
    val sleepMs = FanOut.sparkJobNanos / 1000000 + 5
    val ids = FanOut(spark, 0)(_.reduce(3L) { (_, ids) =>
      val out = List.newBuilder[Long]
      var n = 0
      while (ids.hasNext) {
        if (n == 1) Thread.sleep(sleepMs) // past the budget between hasNext and next
        out += ids.next()
        n += 1
      }
      out.result()
    }(_ ++ _))
    assert(ids.sorted == List(0L, 1L, 2L))
  }

  test("an all-local reduce creates no broadcast and runs no job") {
    val g = ProbGraph.fromEdges(3, Seq((0, 1, 0.5), (1, 2, 0.5)))
    val part = (h: ProbGraph, ids: Iterator[Long]) => MonteCarloSpread.reachSum(h, Array(0), ids, 1L, null)
    val (sums, jobs) = listen { _ =>
      val first = nextBroadcastId()
      val sums = (onDriver(FanOut(spark, g)(_.reduce(500L)(part)(_ + _))),
        FanOut(spark, g)(_.reduce(1L)(part)(_ + _))) // the first id always runs on the driver
      assert(nextBroadcastId() == first + 1, "a broadcast was made between the two probes")
      sums
    }
    assert(jobs.isEmpty, s"jobs=$jobs")
    assert(sums == (part(g, (0L until 500L).iterator), part(g, Iterator(0L))))
  }

  test("a forced Spark reduce destroys its broadcast") {
    val g = ProbGraph.fromEdges(3, Seq((0, 1, 0.5), (1, 2, 0.5)))
    val id = nextBroadcastId()
    val (_, jobs) = listen { ev =>
      onSpark(FanOut(spark, g)(_.reduce(100L)(MonteCarloSpread.reachSum(_, Array(0), _, 1L, null))(_ + _)))
      eventually(timeout(Span(30, Seconds))) {
        val updates = ev.broadcasts.asScala.toSeq.filter(_._1 == id).map(_._2)
        assert(updates.contains(true) && !updates.last, s"updates of broadcast $id: $updates")
      }
    }
    assert(jobs.size == 1, s"jobs=$jobs")
  }

  test("a driver prefix plus a Spark remainder equals the all-local result (Δ, MCS, BG, Exact)") {
    val instance = for {
      n <- Gen.choose(3, 10)
      m <- Gen.choose(n, 3 * n)
      edges <- Gen.listOfN(m, Gen.zip(Gen.choose(0, n - 1), Gen.choose(0, n - 1), Gen.choose(0.1, 1.0)))
      blocked <- Gen.listOfN(n, Gen.prob(0.2))
      seed <- Gen.choose(1L, 1000L)
      frac <- Gen.frequency(1 -> Gen.const(0.0), 1 -> Gen.const(1.0), 4 -> Gen.choose(0.0, 1.0))
    } yield (ProbGraph.fromEdges(n, edges.filter(e => e._1 != e._2)), blocked.toArray, seed, frac)

    val prop = Prop.forAllNoShrink(instance) { case (g, blockedDraw, seed, frac) =>
      val blocked = blockedDraw.clone(); blocked(0) = false
      val split = (count: Long) => math.round(frac * count)
      val theta = 40
      val k = split(theta)
      val delta = FanOut.splitAt(_ => k)(FanOut(spark, g)(
        DeltaEstimator.estimateOn(_, 0, theta, seed, TriggeringModel.IndependentCascade, blocked)))
      val deltaLocal = DeltaEstimator.estimateLocal(g, 0, theta, seed, blocked = blocked)
      val mcs = FanOut.splitAt(_ => k)(FanOut(spark, g)(
        _.reduce(theta.toLong)(MonteCarloSpread.reachSum(_, Array(0), _, seed, blocked))(_ + _)))
      val mcsLocal = MonteCarloSpread.reachSum(g, Array(0), (0L until theta).iterator, seed, blocked)
      val bg = FanOut.splitAt(split)(BaselineGreedy.run(spark, g, Set(0), 2, 30, seed))
      val bgLocal = onDriver(BaselineGreedy.run(spark, g, Set(0), 2, 30, seed))
      val canExact = GraphSampler.support(g, Array(0)).count(identity) > 1 // a candidate besides the seed
      val exact = if (canExact) FanOut.splitAt(split)(ExactBlocker.run(spark, g, Set(0), 2, 30, seed)) else null
      val exactLocal = if (canExact) onDriver(ExactBlocker.run(spark, g, Set(0), 2, 30, seed)) else null
      Prop(delta.sameElements(deltaLocal)) :| s"Δ, k=$k" &&
        Prop(mcs == mcsLocal) :| s"MCS, k=$k" &&
        Prop(bg == bgLocal) :| s"BG, frac=$frac" &&
        Prop(exact == exactLocal) :| s"Exact, frac=$frac"
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(12).withInitialSeed(17L), prop)
    assert(result.passed, result.status.toString)
  }
}
