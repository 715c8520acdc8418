// Clustersim walks the paper's scaling story with the calibrated cluster
// simulator: from 14 days on one M40, through Facebook's 1-hour/256-GPU
// result, to the paper's 20-minute/2048-KNL run — and shows why AlexNet
// (scaling ratio 24.6) weak-scales so much worse than ResNet-50 (308).
//
//	go run ./examples/clustersim
package main

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/models"
)

func main() {
	resnet := models.ResNet50Spec()
	alexBN := models.AlexNetBNSpec()
	const imagenet = 1280000

	fmt.Println("== The paper's ResNet-50 timeline (90 epochs of ImageNet) ==")
	steps := []struct {
		label string
		c     cluster.Cluster
		batch int
		paper string
	}{
		{"1x M40 (the 14-day baseline)", cluster.Cluster{Machine: cluster.TeslaM40, Count: 1, Network: cluster.KNLCluster(1).Network, Algo: dist.Ring}, 256, "14 days"},
		{"DGX-1 station (8x P100)", cluster.DGX1(), 256, "21h"},
		{"Facebook: 256x P100", cluster.Cluster{Machine: cluster.TeslaP100, Count: 256, Network: cluster.DGX1().Network, Algo: dist.Ring}, 8192, "1h"},
		{"512x KNL, B=32K (LARS)", cluster.KNLCluster(512), 32768, "1h"},
		{"1024x CPU, B=32K (LARS)", cluster.CPUCluster(1024), 32768, "48m"},
		{"2048x KNL, B=32K (LARS)", cluster.KNLCluster(2048), 32768, "20m"},
	}
	for _, s := range steps {
		est := cluster.Simulate(s.c, resnet, s.batch, 90, imagenet)
		fmt.Printf("  %-32s B=%-6d sim %-9s (paper: %s)\n", s.label, s.batch, est.Duration().Round(1e9), s.paper)
	}

	fmt.Println("\n== Why the batch size must grow with the machine ==")
	for _, nodes := range []int{128, 512, 2048} {
		small := cluster.Simulate(cluster.KNLCluster(nodes), resnet, 2048, 90, imagenet)
		large := cluster.Simulate(cluster.KNLCluster(nodes), resnet, 32768, 90, imagenet)
		fmt.Printf("  %4d KNLs: B=2048 -> %-9s  B=32768 -> %-9s\n",
			nodes, small.Duration().Round(1e9), large.Duration().Round(1e9))
	}
	fmt.Println("  (at fixed small batch, extra nodes starve: 16 images per node leaves")
	fmt.Println("   the devices idle and the allreduce exposed)")

	fmt.Println("\n== AlexNet vs ResNet-50 weak scaling (512 nodes, B=32K) ==")
	a := cluster.Simulate(cluster.KNLCluster(512), alexBN, 32768, 100, imagenet)
	r := cluster.Simulate(cluster.KNLCluster(512), resnet, 32768, 90, imagenet)
	fmt.Printf("  AlexNet-BN:  comm %4.1f%% of each iteration (scaling ratio %.1f)\n",
		100*a.CommSec/(a.CompSec+a.CommSec), alexBN.ScalingRatio())
	fmt.Printf("  ResNet-50:   comm %4.1f%% of each iteration (scaling ratio %.1f)\n",
		100*r.CommSec/(r.CompSec+r.CommSec), resnet.ScalingRatio())
}
