package perfbench

import org.apache.spark.sql.SparkSession
import repro.exp.Datasets
import repro.graph.{ProbGraph, PropModels, SocialGraphGen}
import repro.imin.{AdvancedGreedy, BaselineGreedy}

/** The blocker-selection algorithm a workload solves with. */
sealed abstract class Algo(val name: String)

object Algo {
  case object AG extends Algo("AdvancedGreedy")
  case object BG extends Algo("BaselineGreedy")
}

/** One benchmark workload: how to build its instance and which solve to time.
  *
  * The instance (graph and seed set) is fixed per workload; the run's
  * `--seed` becomes the algorithm's sampling master seed. Seed sets drawn
  * at random differ in reach per sampled world by more than 10x on these
  * graphs, which would swamp any change to a single layer.
  *
  * @param samples θ for AG, r for BG
  * @param setups set-ups per untraced run; setup_s is their median
  * @param warmups untimed solves before timing starts
  * @param minSolves timed solves made even if `--seconds` ends first
  * @param evalWorlds Monte-Carlo worlds of the fixed spread-evaluation pool
  */
final case class Workload(
    name: String,
    algo: Algo,
    graph: () => ProbGraph,
    budget: Int,
    samples: Int,
    setups: Int,
    warmups: Int,
    minSolves: Int,
    evalWorlds: Int) {

  /** Build the instance: graph, propagation model, seed draw. */
  def instance(): Instance = {
    val g = graph()
    Instance(g, Datasets.randomSeeds(g, Workloads.SeedCount, Workloads.SeedDraw))
  }

  /** One solve through the algorithm's public entry point, default path. */
  def solve(spark: SparkSession, inst: Instance, masterSeed: Long): Seq[Int] = algo match {
    case Algo.AG => AdvancedGreedy.run(spark, inst.g, inst.seeds, budget, samples, masterSeed)
    case Algo.BG => BaselineGreedy.run(spark, inst.g, inst.seeds, budget, samples, masterSeed)
  }
}

final case class Instance(g: ProbGraph, seeds: Set[Int]) {
  def roots: Array[Int] = seeds.toArray.sorted
}

object Workloads {

  /** Seed of the fixed evaluation pool, separate from any selection seed. */
  val EvalSeed: Long = 0x5eedL

  /** Seed set of every workload: 10 seeds, drawn as `EfficiencyBench` does. */
  val SeedCount = 10
  val SeedDraw = 5L

  /** The Wiki-Vote substitute (n = 1.4k, m = 8k) under weighted cascade. */
  private def vote(): ProbGraph = {
    val spec = Datasets.byName("Wiki-Vote")
    Datasets.withModel(spec.graph, "WC", spec.seed)
  }

  /** A directed power-law graph under weighted cascade. */
  private def synth(n: Int, m: Int): () => ProbGraph =
    () => PropModels.weightedCascade(SocialGraphGen.powerLaw(n, m, directed = true, seed = 21L))

  /** Full-size workloads, or tiny ones (`tiny = true`) for the self-test.
    * `vote-wc-bg` is not in BENCHMARK.json: with three workloads the
    * runs would have to be too short to be steady (see perfbench/README.md).
    */
  def all(tiny: Boolean): Seq[Workload] =
    if (!tiny) Seq(
      Workload("vote-wc", Algo.AG, vote _, budget = 20, samples = 1000,
        setups = 9, warmups = 15, minSolves = 6, evalWorlds = 20000),
      Workload("synth200k-wc", Algo.AG, synth(200000, 1000000), budget = 10,
        samples = 100, setups = 3, warmups = 2, minSolves = 3, evalWorlds = 5000),
      Workload("vote-wc-bg", Algo.BG, vote _, budget = 3, samples = 500,
        setups = 5, warmups = 1, minSolves = 3, evalWorlds = 20000))
    else Seq(
      Workload("vote-wc", Algo.AG, vote _, 2, 50, 2, 1, 1, 500),
      Workload("synth200k-wc", Algo.AG, synth(2000, 10000), 2, 20, 2, 1, 1, 500),
      Workload("vote-wc-bg", Algo.BG, vote _, 1, 20, 2, 1, 1, 500))

  def byName(name: String, tiny: Boolean): Workload =
    all(tiny).find(_.name == name).getOrElse(
      throw new IllegalArgumentException(
        s"unknown workload '$name' (known: ${all(tiny).map(_.name).mkString(", ")})"))
}
